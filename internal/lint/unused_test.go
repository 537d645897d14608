package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// TestNoUnreferencedDecls is the dead-code guard: every package-level
// declaration in the root package, internal/..., cmd/... and examples/...
// must be reachable from a main of module saiyan or saiyan/bench (cmd/,
// examples/, bench/), an init, or a //lint:allow unused declaration.
// bench/ is loaded for its references but not checked itself. It runs
// under -short too, so the blocking race job keeps dead code from
// regrowing.
func TestNoUnreferencedDecls(t *testing.T) {
	var pkgs []*Package
	for _, dir := range []string{"../..", "../../bench"} {
		ps, err := Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}
	inScope := func(path string) bool {
		for _, prefix := range []string{"saiyan/internal/", "saiyan/cmd/", "saiyan/examples/"} {
			if strings.HasPrefix(path, prefix) {
				return true
			}
		}
		return path == "saiyan"
	}
	unused(pkgs, inScope, func(pkg *Package, d Diagnostic) {
		t.Errorf("%s", FormatDiagnostic(pkg.Fset, d))
	})
}

// Unused exposes the guard to the fixture harness in package lint_test.
var Unused = unused

// unused is the whole-program dead-code check. It cannot be an Analyzer:
// a vettool sees one package at a time, and whether a declaration is
// reachable depends on every package that imports it. Given the non-test
// packages of every module in the program (Load skips *_test.go files),
// it walks reachability from the roots: every func main of a package
// main, every init and blank (_) declaration (both run at start-up), and
// every declaration whose doc or line comment carries //lint:allow unused
// <reason>. A declaration is live when a live declaration names it.
//
// A method is live when live code names it, or when its receiver type is
// live and the method completes an interface: the type's pointer method
// set covers every method of an interface declared in a loaded package,
// in any package those import, or as an interface literal in loaded code
// (that is how encoding/json reaches a MarshalJSON, or fmt a String).
// Promoted methods count, as do those of types local to a live
// declaration. Struct fields and interface methods are out of scope.
//
// It reports each package-level const, var, type, func and method of a
// package inScope selects that is not live, in load order.
func unused(pkgs []*Package, inScope func(pkgPath string) bool, report func(*Package, Diagnostic)) {
	ifaces := interfaces(pkgs)
	type site struct {
		pkg *Package
		id  *ast.Ident
		key string
	}
	var sites []site
	// refs maps a declaration's key to the keys its definition names;
	// init and blank declarations share the key "", which is a root.
	refs := map[string][]string{}
	roots := []string{""}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				eachDecl(decl, func(id *ast.Ident, def ast.Node, allowed bool) {
					key := objKey(pkg.Info.Defs[id])
					refs[key] = append(refs[key], names(pkg.Info, def, ifaces)...)
					switch {
					case key == "": // init or blank: reached through the "" root
					case allowed || id.Name == "main" && pkg.Types.Name() == "main":
						roots = append(roots, key)
					case inScope(pkg.Path):
						sites = append(sites, site{pkg, id, key})
					}
				})
			}
		}
	}

	live := map[string]bool{}
	work := roots
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		if live[key] {
			continue
		}
		live[key] = true
		work = append(work, refs[key]...)
	}

	for _, s := range sites {
		if !live[s.key] {
			report(s.pkg, Diagnostic{
				Pos:      s.id.Pos(),
				Analyzer: "unused",
				Message:  s.key + " is reachable from no main, init or //lint:allow unused declaration: delete it, or mark it //lint:allow unused <reason>",
			})
		}
	}
}

// interfaces returns the method names of every non-empty interface the
// program can dispatch through: error, those declared in a loaded package
// or any package it imports, and interface literals in loaded code.
func interfaces(pkgs []*Package) [][]string {
	var ifaces [][]string
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			names := make([]string, it.NumMethods())
			for i := range names {
				names[i] = it.Method(i).Name()
			}
			ifaces = append(ifaces, names)
		}
	}
	seen := make(map[string]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				addIface(tv.Type)
			}
		}
	}
	return ifaces
}

// names returns the keys of the package-level objects and methods def
// names, plus, for each type def defines, the methods with which that
// type completes one of ifaces (promoted methods included).
func names(info *types.Info, def ast.Node, ifaces [][]string) []string {
	var keys []string
	ast.Inspect(def, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if k := objKey(info.Uses[id]); k != "" {
			keys = append(keys, k)
		}
		tn, ok := info.Defs[id].(*types.TypeName)
		if !ok || tn.IsAlias() {
			return true
		}
		mset := types.NewMethodSet(types.NewPointer(tn.Type()))
	iface:
		for _, methods := range ifaces {
			sels := make([]*types.Selection, len(methods))
			for i, name := range methods {
				if sels[i] = mset.Lookup(tn.Pkg(), name); sels[i] == nil {
					continue iface
				}
			}
			for _, sel := range sels {
				keys = append(keys, objKey(sel.Obj()))
			}
		}
		return true
	})
	return keys
}

// eachDecl calls fn with each identifier decl declares at package level,
// the node that defines it, and whether a reasoned //lint:allow unused
// exempts it.
func eachDecl(decl ast.Decl, fn func(id *ast.Ident, def ast.Node, allowed bool)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		fn(d.Name, d, allowsUnused(d.Doc))
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					fn(id, s, allowsUnused(d.Doc, s.Doc, s.Comment))
				}
			case *ast.TypeSpec:
				fn(s.Name, s, allowsUnused(d.Doc, s.Doc, s.Comment))
			}
		}
	}
}

// allowsUnused reports whether any of cgs carries a reasoned
// //lint:allow unused.
func allowsUnused(cgs ...*ast.CommentGroup) bool {
	for _, cg := range cgs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := allowRE.FindStringSubmatch(c.Text); m != nil && m[1] == "unused" && strings.TrimSpace(m[2]) != "" {
				return true
			}
		}
	}
	return false
}

// objKey names a package-level object or method across type-checker
// universes: a package checked from source and the same package read
// back from export data hold distinct objects with equal keys. It is ""
// for nil, locals, fields, init, blanks and universe objects.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
		return ""
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
