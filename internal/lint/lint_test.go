package lint_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"saiyan/internal/lint"
)

// The harness mirrors x/tools analysistest: fixture packages under
// testdata/src carry `// want `regexp`` comments on the lines expected to
// produce diagnostics; everything else must stay silent.

var (
	exportOnce sync.Once
	exportErr  error
	exports    map[string]string
	testFset   = token.NewFileSet()
	testImp    types.Importer
)

// fixtureDeps are the import paths testdata packages may use; their
// export data (plus transitive deps) is resolved once per test binary.
var fixtureDeps = []string{
	"context", "errors", "fmt", "math/rand", "sort", "time",
	"saiyan/internal/obs", "saiyan/internal/flight",
	"saiyan/internal/health",
}

func fixtureImporter(t *testing.T) types.Importer {
	t.Helper()
	exportOnce.Do(func() {
		args := append([]string{
			"list", "-export", "-deps", "-json=ImportPath,Export",
		}, fixtureDeps...)
		cmd := exec.Command("go", args...)
		cmd.Dir = "../.." // module root, so saiyan/... resolves
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			exportErr = err
			if stderr.Len() > 0 {
				exportErr = &exec.Error{Name: "go list", Err: err}
			}
			return
		}
		exports = map[string]string{}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var e struct{ ImportPath, Export string }
			if err := dec.Decode(&e); err == io.EOF {
				break
			} else if err != nil {
				exportErr = err
				return
			}
			if e.Export != "" {
				exports[e.ImportPath] = e.Export
			}
		}
		testImp = lint.ExportImporter(testFset, func(path string) (string, error) {
			f, ok := exports[path]
			if !ok {
				return "", os.ErrNotExist
			}
			return f, nil
		})
	})
	if exportErr != nil {
		t.Fatalf("resolving fixture export data: %v", exportErr)
	}
	return testImp
}

var wantRE = regexp.MustCompile("// want `([^`]*)`")

// runFixture type-checks testdata/src/<dir> as package pkgPath, runs one
// analyzer, and matches diagnostics against the `// want` expectations.
func runFixture(t *testing.T, a *lint.Analyzer, pkgPath, dir string) {
	t.Helper()
	checkFixture(t, pkgPath, dir, func(pkg *lint.Package) ([]lint.Diagnostic, error) {
		return lint.RunAnalyzers(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, []*lint.Analyzer{a})
	})
}

// checkFixture type-checks testdata/src/<dir> as package pkgPath, runs
// check over it, and matches the diagnostics against the `// want`
// expectations.
func checkFixture(t *testing.T, pkgPath, dir string, check func(*lint.Package) ([]lint.Diagnostic, error)) {
	t.Helper()
	imp := fixtureImporter(t)

	base := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	wants := map[string][]string{} // "file:line" -> regexps
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		name := filepath.Join(base, ent.Name())
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(testFset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				key := ent.Name() + ":" + itoa(i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}

	tpkg, info, err := lint.TypeCheck(testFset, pkgPath, files, imp)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	diags, err := check(&lint.Package{Path: pkgPath, Dir: base, Fset: testFset, Files: files, Types: tpkg, Info: info})
	if err != nil {
		t.Fatal(err)
	}

	matched := map[string]bool{} // want key + regexp
	for _, d := range diags {
		pos := testFset.Position(d.Pos)
		key := filepath.Base(pos.Filename) + ":" + itoa(pos.Line)
		ok := false
		for _, re := range wants[key] {
			if regexp.MustCompile(re).MatchString(d.Message) {
				matched[key+"\x00"+re] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic (%s): %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	var keys []string
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, re := range wants[key] {
			if !matched[key+"\x00"+re] {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, re)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestDeterminism(t *testing.T) {
	runFixture(t, lint.Determinism, "saiyanvet.example/pipeline", "determinism")
}

func TestDeterminismNonSnapshotPackage(t *testing.T) {
	runFixture(t, lint.Determinism, "saiyanvet.example/util", "nonsnapshot")
}

func TestFxpSat(t *testing.T) {
	runFixture(t, lint.FxpSat, "saiyanvet.example/fxp", "fxpsat")
}

func TestFxpSatOutsideFxp(t *testing.T) {
	runFixture(t, lint.FxpSat, "saiyanvet.example/other", "fxpsat_other")
}

func TestHotAlloc(t *testing.T) {
	runFixture(t, lint.HotAlloc, "saiyanvet.example/hot", "hotalloc")
}

func TestObsGate(t *testing.T) {
	runFixture(t, lint.ObsGate, "saiyanvet.example/gateway", "obsgate")
}

func TestObsGateTelemetryPlane(t *testing.T) {
	runFixture(t, lint.ObsGate, "saiyanvet.example/server", "obsgate_serve")
}

func TestObsGateFlight(t *testing.T) {
	runFixture(t, lint.ObsGate, "saiyanvet.example/stream", "flightgate")
}

func TestObsGateHealth(t *testing.T) {
	runFixture(t, lint.ObsGate, "saiyanvet.example/core", "healthgate")
}

func TestCtxFirst(t *testing.T) {
	runFixture(t, lint.CtxFirst, "saiyanvet.example/api", "ctxfirst")
}

// TestUnused runs the whole-program dead-code guard over a one-package
// program: a closed group and a helper of dead code are flagged, a
// String reached through fmt.Stringer and allowed reference code are not.
func TestUnused(t *testing.T) {
	checkFixture(t, "saiyanvet.example/unused", "unused", func(pkg *lint.Package) ([]lint.Diagnostic, error) {
		var diags []lint.Diagnostic
		lint.Unused([]*lint.Package{pkg}, func(string) bool { return true }, func(_ *lint.Package, d lint.Diagnostic) {
			diags = append(diags, d)
		})
		return diags, nil
	})
}

// TestAllowMissingReason pins the directive grammar: an allow without a
// reason is itself reported, and it does not suppress the finding.
func TestAllowMissingReason(t *testing.T) {
	imp := fixtureImporter(t)
	const src = `package pipeline

import "time"

func bad() int64 {
	//lint:allow determinism
	return time.Now().UnixNano()
}
`
	f, err := parser.ParseFile(testFset, "bad.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	tpkg, info, err := lint.TypeCheck(testFset, "saiyanvet.example/pipeline", []*ast.File{f}, imp)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(testFset, []*ast.File{f}, tpkg, info, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	var haveGrammar, haveFinding bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "missing its mandatory reason"):
			haveGrammar = true
		case d.Analyzer == "determinism":
			haveFinding = true
		}
	}
	if !haveGrammar {
		t.Errorf("missing-reason allow not reported; got %+v", diags)
	}
	if !haveFinding {
		t.Errorf("reasonless allow suppressed the finding; got %+v", diags)
	}
}

// TestSaiyanvetClean is the repo-wide gate: the full suite over every
// package must report nothing — violations are either fixed or carry a
// reasoned //lint:allow.
func TestSaiyanvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is not a -short test")
	}
	diags, err := lint.Analyze("../..", lint.All(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
