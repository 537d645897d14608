package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedDecls is the dead-code guard: every package-level
// declaration in the root package and internal/... must be named by some
// non-test file of module saiyan or saiyan/bench. It runs under -short
// too, so the blocking race job keeps dead code from regrowing.
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
		return path == "saiyan" || strings.HasPrefix(path, "saiyan/internal/")
	}
	for _, d := range unused(pkgs, inScope) {
		t.Errorf("%s", d)
	}
}

// unused is the whole-program dead-code check. It cannot be an Analyzer:
// a vettool sees one package at a time, and whether a declaration is
// referenced depends on every package that imports it. Given the non-test
// packages of every module in the program (Load skips *_test.go files),
// it reports each package-level const, var, type, func and method of a
// package inScope selects that no loaded file outside the declaration
// itself names.
//
// A method also counts as referenced when an interface can reach it: a
// type's pointer method set covers every method of an interface declared
// in a loaded package, in any package those import, or as an interface
// literal in loaded code (that is how encoding/json reaches a
// MarshalJSON, or fmt a String). Struct fields and interface methods are
// out of scope. A declaration whose doc or line comment carries
// //lint:allow unused <reason> is exempt. Results are formatted like
// FormatDiagnostic and sorted.
func unused(pkgs []*Package, inScope func(pkgPath string) bool) []string {
	used := make(map[string]bool)
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
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				markUses(pkg.Info, decl, used)
			}
		}
	}

	// Interface dispatch: every method a type contributes to an
	// interface it satisfies is reachable, promoted methods included.
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
		iface:
			for _, names := range ifaces {
				sels := make([]*types.Selection, len(names))
				for i, name := range names {
					if sels[i] = mset.Lookup(tn.Pkg(), name); sels[i] == nil {
						continue iface
					}
				}
				for _, sel := range sels {
					used[objKey(sel.Obj())] = true
				}
			}
		}
	}

	var out []string
	for _, pkg := range pkgs {
		if !inScope(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, id := range declared(decl) {
					obj := pkg.Info.Defs[id]
					if obj == nil || id.Name == "_" || id.Name == "init" || used[objKey(obj)] {
						continue
					}
					out = append(out, FormatDiagnostic(pkg.Fset, Diagnostic{
						Pos:      id.Pos(),
						Analyzer: "unused",
						Message:  objKey(obj) + " is referenced by no non-test file: delete it, or mark it //lint:allow unused <reason>",
					}))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// markUses records every package-level object decl names, except the
// declaration's own identifiers (a recursive call is not a caller) and
// a method's receiver type (a method alone does not keep its type).
func markUses(info *types.Info, decl ast.Decl, used map[string]bool) {
	self := make(map[string]bool)
	for _, id := range declared(decl) {
		self[objKey(info.Defs[id])] = true
	}
	var recv *ast.FieldList
	if fd, ok := decl.(*ast.FuncDecl); ok {
		recv = fd.Recv
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FieldList); ok && fl == recv {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if k := objKey(info.Uses[id]); k != "" && !self[k] {
				used[k] = true
			}
		}
		return true
	})
}

// declared returns the identifiers decl declares at package level,
// leaving out those exempted by //lint:allow unused.
func declared(decl ast.Decl) []*ast.Ident {
	var ids []*ast.Ident
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !allowsUnused(d.Doc) {
			ids = append(ids, d.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				if !allowsUnused(d.Doc, s.Doc, s.Comment) {
					ids = append(ids, s.Names...)
				}
			case *ast.TypeSpec:
				if !allowsUnused(d.Doc, s.Doc, s.Comment) {
					ids = append(ids, s.Name)
				}
			}
		}
	}
	return ids
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
// for nil, locals, fields, and universe objects.
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
