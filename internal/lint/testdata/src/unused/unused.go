package main

import "fmt"

func main() {
	fmt.Println(live{n: 1})
}

// live is named from main; nothing names its String, which fmt reaches
// through fmt.Stringer.
type live struct{ n int }

func (l live) String() string { return fmt.Sprint("live ", l.n) }

// kind, its constants and its String name only one another.
type kind int // want `kind is reachable from no main`

const (
	kindA kind = iota // want `kindA is reachable`
	kindB             // want `kindB is reachable`
)

func (k kind) String() string { // want `kind\.String is reachable`
	switch k {
	case kindA:
		return "a"
	case kindB:
		return "b"
	}
	return "?"
}

// dead is named by nothing, and helper only by dead.
func dead() int { return helper() } // want `dead is reachable`

func helper() int { return 1 } // want `helper is reachable`

// unreferenced is exempt, and so keeps check live.
//
//lint:allow unused reference code a test would compare live code against
func unreferenced() int { return check() }

func check() int { return 2 }
