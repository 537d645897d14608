package experiments

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"saiyan/internal/pins"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure from the paper's evaluation must be present.
	want := []string{
		"fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig10",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig23", "fig24", "fig25", "fig26", "fig27", "tab1", "tab2",
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("experiment %s missing: %v", id, err)
		}
	}
	if got := len(List()); got != len(want) {
		t.Errorf("registry has %d experiments, want %d", got, len(want))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestListSorted(t *testing.T) {
	list := List()
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatalf("list not sorted: %s before %s", list[i-1].ID, list[i].ID)
		}
	}
	for _, e := range list {
		if e.Title == "" || e.PaperResult == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely described", e.ID)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.AddNote("hello %d", 7)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo", "333  4", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

// TestQuickExperimentsSmoke runs the cheap experiments end to end in quick
// mode; the expensive sweeps are exercised by the benchmarks and the
// long-mode test below.
func TestQuickExperimentsSmoke(t *testing.T) {
	opts := DefaultOptions()
	opts.Quick = true
	for _, id := range []string{"fig3", "fig5", "fig6", "fig7", "fig8", "fig10", "tab2", "fig26", "fig27", "fig2", "fig23"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := e.Run(opts)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		var buf bytes.Buffer
		if err := tab.Render(&buf); err != nil {
			t.Errorf("%s render: %v", id, err)
		}
	}
}

// TestAllExperimentsQuick runs the entire registry in quick mode. It is the
// integration test for the whole reproduction; the full run takes tens of
// seconds, so -short further cuts the Monte-Carlo trial counts to keep
// registry coverage while finishing in seconds. Outside -short it also
// pins the SHA-256 of every table, rendered in registry order at the
// default seed: the reproduction's printed results, byte for byte.
func TestAllExperimentsQuick(t *testing.T) {
	opts := DefaultOptions()
	opts.Quick = true
	if testing.Short() {
		opts.TrialScale = 0.05
	}
	h := sha256.New()
	for _, e := range List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", e.ID)
			}
			if err := tab.Render(h); err != nil {
				t.Fatalf("%s render: %v", e.ID, err)
			}
		})
	}
	if testing.Short() || t.Failed() {
		return
	}
	pins.Check(t, "experiments/quick-tables", h)
}
