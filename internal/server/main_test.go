package server

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines behind:
// after the run, the goroutine count must fall back to what it was before
// within leakGrace. A server, client or subscriber loop still running
// then is a leak; the check prints every goroutine's stack to show where.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settleGoroutines(base, leakGrace); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n\n%s\n", n, base, buf)
			code = 1
		}
	}
	os.Exit(code)
}

// leakGrace is how long TestMain waits for goroutines to wind down.
const leakGrace = 5 * time.Second

// settleGoroutines polls the goroutine count until it is at most base or
// the grace period runs out, and returns the last count.
func settleGoroutines(base int, grace time.Duration) int {
	deadline := time.Now().Add(grace)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
