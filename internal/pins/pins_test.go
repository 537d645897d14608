package pins

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var (
	sumA = strings.Repeat("0a", 32)
	sumB = strings.Repeat("0b", 32)
	sumC = strings.Repeat("0c", 32)
)

// writeLedger writes a ledger of the given lines to a temporary file.
func writeLedger(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pins.txt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseRejectsBadLedgers feeds parse one defect per ledger: each must
// fail, and a good ledger must format back to its own bytes.
func TestParseRejectsBadLedgers(t *testing.T) {
	for _, bad := range []string{
		"",
		"a",
		"a " + sumA + " extra",
		"a  " + sumA,
		" " + sumA,
		"a " + strings.ToUpper(sumA),
		"a " + sumA[:62],
		"a " + sumA[:63] + "g",
		"b " + sumB + "\na " + sumA,
		"a " + sumA + "\na " + sumB,
		"a " + sumA + "\n\nb " + sumB,
	} {
		if _, err := parse(bad + "\n"); err == nil {
			t.Errorf("parse(%q) accepted a bad ledger", bad)
		}
	}
	good := "a " + sumA + "\nb/c.d " + sumB + "\n"
	entries, err := parse(good)
	if err != nil {
		t.Fatal(err)
	}
	if got := format(entries); got != good {
		t.Errorf("format(parse(%q)) = %q", good, got)
	}
}

// TestCheckUnknownNameFails checks that a name no ledger line holds is an
// error in both modes, and that update mode does not add it.
func TestCheckUnknownNameFails(t *testing.T) {
	path := writeLedger(t, "a "+sumA)
	for _, update := range []bool{false, true} {
		if _, err := check(path, "b", sumB, update); err == nil {
			t.Errorf("update=%v: unknown name accepted", update)
		}
	}
	if b, _ := os.ReadFile(path); string(b) != "a "+sumA+"\n" {
		t.Errorf("ledger changed to %q", b)
	}
}

// TestUpdateRewritesOnlyMovedEntries checks that update mode leaves an
// unchanged ledger unwritten and rewrites only the entry that moved.
func TestUpdateRewritesOnlyMovedEntries(t *testing.T) {
	path := writeLedger(t, "a "+sumA, "b "+sumB)
	stamp := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := os.Chtimes(path, stamp, stamp); err != nil {
		t.Fatal(err)
	}
	for _, e := range []entry{{"a", sumA}, {"b", sumB}} {
		if old, err := check(path, e.name, e.sum, true); err != nil || old != e.sum {
			t.Fatalf("check(%s) = %s, %v", e.name, old, err)
		}
	}
	if fi, err := os.Stat(path); err != nil || !fi.ModTime().Equal(stamp) {
		t.Fatalf("update mode wrote an unchanged ledger (%v)", err)
	}
	if old, err := check(path, "b", sumC, false); err != nil || old != sumB {
		t.Fatalf("check without update = %s, %v", old, err)
	}
	if old, err := check(path, "b", sumC, true); err != nil || old != sumB {
		t.Fatalf("check with update = %s, %v", old, err)
	}
	if b, _ := os.ReadFile(path); string(b) != "a "+sumA+"\nb "+sumC+"\n" {
		t.Errorf("updated ledger = %q", b)
	}
}

// TestLedgerEntriesAreRead parses the module's ledger and fails on every
// entry whose name no test file outside this package spells as a string
// literal: a pin no test checks holds nothing.
func TestLedgerEntriesAreRead(t *testing.T) {
	path, err := ledgerPath()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := parse(string(b))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var tests strings.Builder
	root := filepath.Dir(filepath.Dir(path))
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") || filepath.Dir(p) == here {
			return err
		}
		src, err := os.ReadFile(p)
		tests.Write(src)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.Contains(tests.String(), `"`+e.name+`"`) {
			t.Errorf("%s: no test reads pin %s", path, e.name)
		}
	}
}
