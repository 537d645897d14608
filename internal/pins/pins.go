// Package pins holds test outputs byte for byte against one ledger,
// testdata/pins.txt at the module root: one "name sha256" line per pinned
// output, sorted by name. A pin test hashes what it pins and calls Check,
// so a moved byte fails it. After a change that moves an output on
// purpose, `make pins` reruns the pin tests with -update-pins, which
// rewrites only the entries that moved; the ledger's diff then names them.
package pins

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update-pins", false, "rewrite the entries of testdata/pins.txt that differ")

// entry is one ledger line.
type entry struct{ name, sum string }

// mu serializes the ledger's read-modify-write within one test binary.
var mu sync.Mutex

// Updating reports whether the test binary runs with -update-pins.
//
//lint:allow unused the golden trace test asks it before re-decoding its frozen frames
func Updating() bool { return *update }

// Check compares the SHA-256 of data, a []byte or a finished hash.Hash,
// with the ledger's entry name. A mismatch fails t with both hashes, and
// a name no ledger line holds fails it outright. With -update-pins a
// differing entry is rewritten instead and logged as "name: old -> new".
//
//lint:allow unused every pin test calls it
func Check(t testing.TB, name string, data any) {
	t.Helper()
	var sum []byte
	switch d := data.(type) {
	case []byte:
		s := sha256.Sum256(d)
		sum = s[:]
	case hash.Hash:
		sum = d.Sum(nil)
	default:
		t.Fatalf("pin %s: cannot hash a %T", name, data)
	}
	path, err := ledgerPath()
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(sum)
	old, err := check(path, name, got, *update)
	switch {
	case err != nil:
		t.Fatal(err)
	case old == got:
	case *update:
		t.Logf("%s: %s -> %s", name, old, got)
	default:
		t.Errorf("pin %s: sha256 %s, ledger holds %s (run make pins after an intended change)", name, got, old)
	}
}

// check returns the sum the ledger at path holds for name and, when
// update is set and sum differs, rewrites that entry to sum.
func check(path, name, sum string, update bool) (string, error) {
	mu.Lock()
	defer mu.Unlock()
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	entries, err := parse(string(b))
	if err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	for i, e := range entries {
		if e.name != name {
			continue
		}
		if update && e.sum != sum {
			entries[i].sum = sum
			err = os.WriteFile(path, []byte(format(entries)), 0o644)
		}
		return e.sum, err
	}
	return "", fmt.Errorf("pin %s: no line of %s holds it", name, path)
}

// parse reads the ledger's lines. Every line must be a name, one space and
// a lowercase hex SHA-256, with names strictly ascending.
func parse(s string) ([]entry, error) {
	var entries []entry
	for i, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		if b, err := hex.DecodeString(sum); name == "" || err != nil || len(b) != sha256.Size || hex.EncodeToString(b) != sum {
			return nil, fmt.Errorf("line %d: %q is not a name and a lowercase hex SHA-256", i+1, line)
		}
		if n := len(entries); n > 0 && name <= entries[n-1].name {
			return nil, fmt.Errorf("line %d: %s does not sort after %s (unsorted or duplicate)", i+1, name, entries[n-1].name)
		}
		entries = append(entries, entry{name, sum})
	}
	return entries, nil
}

// format writes entries back in the form parse reads.
func format(entries []entry) string {
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(e.name + " " + e.sum + "\n")
	}
	return b.String()
}

// ledgerPath is testdata/pins.txt in the module root: the nearest
// directory at or above the working directory that holds a go.mod.
func ledgerPath() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "testdata", "pins.txt"), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("pins: no go.mod at or above the working directory")
		}
		dir = parent
	}
}
