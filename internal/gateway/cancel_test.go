package gateway

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)th call on, so a test can cut an epoch at a chosen check.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestRunEpochCancel pins RunEpoch's cancellation contract: a context
// cancelled before the call is refused without latching, and one cancelled
// mid-epoch fails the epoch, latches, and leaves no goroutine behind.
func TestRunEpochCancel(t *testing.T) {
	t.Run("before", func(t *testing.T) {
		g, err := New(acceptanceConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := g.RunEpoch(ctx); err != context.Canceled {
			t.Fatalf("pre-cancelled RunEpoch: err %v, want context.Canceled", err)
		}
		rep, err := g.RunEpoch(context.Background())
		if err != nil {
			t.Fatalf("RunEpoch after a refused call: %v", err)
		}
		if rep.Epoch != 0 {
			t.Errorf("served epoch %d after a refused call, want 0", rep.Epoch)
		}
	})
	// The first epoch checks its context once per capture chunk and once
	// per window, 39 times in all; every cut-off below lands inside it.
	for _, n := range []int64{2, 5, 10} {
		t.Run(fmt.Sprintf("after%d", n), func(t *testing.T) {
			base := runtime.NumGoroutine()
			g, err := New(acceptanceConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.RunEpoch(&cancelAfter{Context: context.Background(), n: n}); !errors.Is(err, context.Canceled) {
				t.Fatalf("cut after %d checks: err %v, want context.Canceled", n, err)
			}
			if _, err := g.RunEpoch(context.Background()); !errors.Is(err, context.Canceled) {
				t.Errorf("cut after %d checks: next RunEpoch err %v, want the latched cancellation", n, err)
			}
			// Exiting goroutines may still be counted for a moment.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > base {
				t.Errorf("cut after %d checks: %d goroutines, baseline %d", n, got, base)
			}
		})
	}
}
