// Package lint is saiyanvet's analysis engine: a suite of custom static
// analyzers that mechanically enforce the invariants this codebase rests
// on but no compiler checks — snapshot determinism at any worker count,
// zero allocations on annotated hot paths, and the Q1.15 saturating
// arithmetic discipline of the fixed-point MCU datapath.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone: packages are type-checked from source with their dependencies
// imported from gc export data (`go list -export`), so the suite needs no
// module downloads and runs identically offline, standalone
// (`saiyanvet ./...`), and under `go vet -vettool`.
//
// # Analyzers
//
//   - determinism: in snapshot-affecting packages (core, sim, stream,
//     pipeline, gateway, fxp, trace), flags ungated time.Now/time.Since,
//     global math/rand draws, bare map ranges whose iteration order can
//     escape the loop, and select statements racing multiple result
//     channels.
//   - fxpsat: inside internal/fxp, flags raw +,-,*,/ on Q1.15 (int16)
//     values outside the saturating primitives, and float<->Q15
//     conversions outside the ADC boundary.
//   - hotalloc: in functions annotated //saiyan:hotpath, flags per-call
//     allocations — make/new, &composite literals, fmt.Sprintf-family
//     and errors.New calls, closures, and interface boxing.
//   - obsgate: keeps the three telemetry planes (internal/obs,
//     internal/flight, internal/health) write-only in hot-layer packages
//     and their registration/construction out of hotpath functions; one
//     rule table keyed by package holds each plane's read and construct
//     sets.
//   - ctxfirst: exported APIs taking a context.Context take it first.
//
// One check is whole-program and so is not an Analyzer: the dead-code
// guard (TestNoUnreferencedDecls in this package) loads the repository
// root and bench/ with Load and fails on every package-level declaration
// of the root package, internal/..., cmd/... and examples/... that is
// not reachable from a main, an init, or a declaration marked
// //lint:allow unused <reason>. The mark keeps reference code that tests
// compare live code against, and everything it names.
//
// # Annotation grammar
//
// Two comment directives steer the suite:
//
//	//saiyan:hotpath
//	    On a function's doc comment: the function is a per-frame hot
//	    path; hotalloc and obsgate audit its body.
//
//	//lint:allow <analyzer> <reason>
//	    Suppresses <analyzer>'s diagnostics on the same line, the next
//	    line, or — when part of a function's doc comment — the whole
//	    function. The reason is mandatory; an allow without one is
//	    itself a diagnostic.
//
// Test files (*_test.go) are exempt from every analyzer: the invariants
// guard shipped decode paths, and tests legitimately use wall clocks,
// global rand, and float references.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one named analysis.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives. It must be a valid identifier.
	Name string
	// Doc is a one-line description (shown by saiyanvet -list).
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report. A non-nil error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package; Pkg.Path() decides package-scoped
	// rules (the determinism package list, the fxp boundary).
	Pkg *types.Package
	// Info carries the type-checker's facts for every expression.
	Info *types.Info

	// report receives surviving diagnostics (post-suppression).
	report func(Diagnostic)
	// allows indexes //lint:allow directives by file and line.
	allows map[*ast.File]*fileDirectives
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a finding at pos unless an //lint:allow directive for
// this analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// fileDirectives is the suppression state of one file: allow lines by
// analyzer name, plus whole-function spans from doc-comment directives.
type fileDirectives struct {
	lines map[string]map[int]bool // analyzer -> set of covered lines
	spans map[string][][2]token.Pos
}

var allowRE = regexp.MustCompile(`^//\s*lint:allow\s+(\w+)(?:\s+(.*))?$`)

// parseDirectives indexes one file's //lint:allow comments. A directive
// with no reason is reported immediately (grammar violation) and ignored.
func parseDirectives(fset *token.FileSet, f *ast.File, report func(Diagnostic)) *fileDirectives {
	d := &fileDirectives{
		lines: make(map[string]map[int]bool),
		spans: make(map[string][][2]token.Pos),
	}
	add := func(name string, line int) {
		if d.lines[name] == nil {
			d.lines[name] = make(map[int]bool)
		}
		// Cover the directive's own line and the one after it, so both
		// end-of-line and preceding-line placement work.
		d.lines[name][line] = true
		d.lines[name][line+1] = true
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			name, reason := m[1], strings.TrimSpace(m[2])
			if reason == "" {
				report(Diagnostic{Pos: c.Pos(), Analyzer: "lint",
					Message: fmt.Sprintf("//lint:allow %s is missing its mandatory reason", name)})
				continue
			}
			add(name, fset.Position(c.Pos()).Line)
		}
	}
	// Doc-comment directives widen to the whole declaration.
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		for _, c := range fn.Doc.List {
			m := allowRE.FindStringSubmatch(c.Text)
			if m == nil || strings.TrimSpace(m[2]) == "" {
				continue
			}
			d.spans[m[1]] = append(d.spans[m[1]], [2]token.Pos{fn.Pos(), fn.End()})
		}
	}
	return d
}

// suppressed reports whether an //lint:allow directive covers pos for the
// pass's analyzer.
func (p *Pass) suppressed(pos token.Pos) bool {
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	d := p.allows[f]
	if d == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	if d.lines[p.Analyzer.Name][line] {
		return true
	}
	for _, span := range d.spans[p.Analyzer.Name] {
		if span[0] <= pos && pos < span[1] {
			return true
		}
	}
	return false
}

// fileOf finds the syntax file containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// isTestFile reports whether the file holding pos is a *_test.go file,
// which every analyzer exempts.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// HasDirective reports whether fn's doc comment carries the given
// //saiyan:<name> directive (e.g. "hotpath").
func HasDirective(fn *ast.FuncDecl, name string) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	want := "//saiyan:" + name
	for _, c := range fn.Doc.List {
		if text, _, _ := strings.Cut(c.Text, " "); text == want {
			return true
		}
	}
	return false
}

// walkWithStack traverses root, giving visit the chain of enclosing nodes
// (outermost first, n last). Returning false prunes n's children.
func walkWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !visit(n, stack) {
			// Children are pruned, but Inspect still sends the nil pop
			// only when we return true; mimic the pop ourselves.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// enclosingFunc returns the innermost enclosing function declaration or
// literal on the stack (nil if none).
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// enclosingFuncDecl returns the enclosing *named* function declaration,
// looking through closures (nil at file scope).
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// pkgName resolves an identifier to the package it names, or nil.
func (p *Pass) pkgName(id *ast.Ident) *types.PkgName {
	if id == nil {
		return nil
	}
	obj, ok := p.Info.Uses[id]
	if !ok {
		return nil
	}
	pn, ok := obj.(*types.PkgName)
	if !ok {
		return nil
	}
	return pn
}

// isPkgFunc reports whether call invokes the package-level function
// pkgPath.name (e.g. "time".Now).
func (p *Pass) isPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	pn := p.pkgName(identOf(sel.X))
	return pn != nil && pn.Imported().Path() == pkgPath
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// typeOf is Info.TypeOf with a nil guard.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// All is the full saiyanvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		FxpSat,
		HotAlloc,
		ObsGate,
		CtxFirst,
	}
}

// RunAnalyzers applies every analyzer in as to pkg and returns the
// surviving diagnostics sorted by position. Diagnostics in *_test.go
// files are dropped (the invariants guard shipped code).
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, as []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }

	// Directive parsing is analyzer-independent; grammar errors surface
	// once, not once per analyzer.
	allows := make(map[*ast.File]*fileDirectives, len(files))
	for _, f := range files {
		if strings.HasSuffix(fset.Position(f.FileStart).Filename, "_test.go") {
			continue
		}
		allows[f] = parseDirectives(fset, f, collect)
	}

	for _, a := range as {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			report:   collect,
			allows:   allows,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	out := diags[:0]
	for _, d := range diags {
		if strings.HasSuffix(fset.Position(d.Pos).Filename, "_test.go") {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
