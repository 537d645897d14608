package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc audits functions annotated //saiyan:hotpath — the per-frame
// decode kernels whose B/op parity the benchmark twins pin — and flags
// the constructs that allocate per call:
//
//   - make and new
//   - composite literals whose address escapes (&T{...}) or that are
//     composite-typed values materialized in the body
//   - the fmt.Sprint family, fmt.Errorf, and errors.New (each allocates
//     its result; hoist sentinel errors to package vars)
//   - function literals (closure environments allocate)
//   - interface boxing: passing a concrete non-pointer value to an
//     interface-typed parameter heap-allocates the box
//
// Handing out freshly made memory is sometimes the function's contract
// (a pipeline worker allocates the symbol array its delivered results
// own); such sites carry //lint:allow hotalloc <reason> rather than
// weakening the rule.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags per-call allocations inside //saiyan:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(p *Pass) error {
	for _, f := range p.Files {
		if p.isTestFile(f.FileStart) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !HasDirective(fn, "hotpath") || fn.Body == nil {
				continue
			}
			p.auditHotBody(fn)
		}
	}
	return nil
}

func (p *Pass) auditHotBody(fn *ast.FuncDecl) {
	walkWithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			p.checkHotCall(n)
		case *ast.UnaryExpr:
			if _, ok := n.X.(*ast.CompositeLit); ok {
				p.Reportf(n.Pos(), "&composite literal escapes to the heap on every call in a hotpath function: hoist it to a struct field or package var")
			}
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "function literal in a hotpath function allocates its closure environment per call: hoist to a method or package-level func")
			return false // don't double-report the closure's own body
		}
		return true
	})
}

// allocBuiltins are the builtin calls that always allocate.
var allocBuiltins = map[string]bool{"make": true, "new": true}

// allocFuncs maps package path -> function names whose every call
// allocates its result.
var allocFuncs = map[string]map[string]bool{
	"fmt": {
		"Sprint": true, "Sprintf": true, "Sprintln": true, "Errorf": true,
	},
	"errors": {"New": true},
}

func (p *Pass) checkHotCall(call *ast.CallExpr) {
	if id := identOf(call.Fun); id != nil {
		if _, ok := p.Info.Uses[id].(*types.Builtin); ok && allocBuiltins[id.Name] {
			p.Reportf(call.Pos(), "%s in a hotpath function allocates per call: reuse a scratch buffer on the receiver (or //lint:allow hotalloc when the allocation is the function's contract)", id.Name)
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pn := p.pkgName(identOf(sel.X)); pn != nil {
			if allocFuncs[pn.Imported().Path()][sel.Sel.Name] {
				p.Reportf(call.Pos(), "%s.%s allocates its result on every call: hoist sentinel errors/strings to package vars", pn.Imported().Name(), sel.Sel.Name)
				return
			}
		}
	}
	p.checkBoxing(call)
}

// checkBoxing flags arguments implicitly converted to interface types:
// boxing a concrete value allocates. Passing something that is already an
// interface (ctx, error values) is free and allowed.
func (p *Pass) checkBoxing(call *ast.CallExpr) {
	sigT := p.typeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return // builtin or conversion
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := p.typeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		// Pointer-shaped values (pointers, chans, maps, funcs) ride in the
		// interface data word directly; boxing them is free. Everything
		// else — ints, floats, structs, slices, strings — heap-allocates.
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue
		case *types.Basic:
			b := at.Underlying().(*types.Basic)
			if b.Kind() == types.UntypedNil || b.Kind() == types.UnsafePointer {
				continue
			}
		}
		p.Reportf(arg.Pos(), "argument boxes a concrete %s into an interface parameter, allocating per call in a hotpath function", at)
	}
}
