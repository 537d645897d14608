package main

// End-to-end smoke over the real binary: build cmd/saiyan, start
// `serve -listen` on loopback, attach subscribers (a `watch` process, a
// deliberately slow in-process client, and a churn client that vanishes
// mid-run), and assert the daemon finishes its epoch budget while the fast
// client sees the stream and the slow client's drop accounting is
// reported. The deterministic drop-forcing variant (tiny socket buffers)
// lives in internal/server; this test covers the CLI wiring.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"saiyan"
)

func TestServeWatchE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e smoke builds and runs the binary; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	bin := filepath.Join(t.TempDir(), "saiyan")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const epochs = 10
	serve := exec.CommandContext(ctx, bin, "serve",
		"-listen", "127.0.0.1:0", "-epochs", fmt.Sprint(epochs),
		"-tags", "4", "-frames", "2", "-workers", "2", "-gap", "300ms")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	serve.Stderr = nil
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}

	// The daemon prints its bound address on the first line.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("serve printed nothing: %v", sc.Err())
	}
	first := sc.Text()
	if !strings.HasPrefix(first, "serving on ") {
		t.Fatalf("unexpected first serve line: %q", first)
	}
	addr := strings.Fields(strings.TrimPrefix(first, "serving on "))[0]
	var serveRest strings.Builder
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			serveRest.WriteString(sc.Text())
			serveRest.WriteByte('\n')
		}
	}()

	// Fast subscriber: the watch subcommand, staying until the server's bye.
	watch := exec.CommandContext(ctx, bin, "watch", addr)
	watchOut := make(chan string, 1)
	go func() {
		out, err := watch.CombinedOutput()
		if err != nil {
			watchOut <- fmt.Sprintf("WATCH-ERROR %v\n%s", err, out)
			return
		}
		watchOut <- string(out)
	}()

	// Slow subscriber: an in-process client that dawdles between reads and
	// tracks the drop accounting the server reports about it.
	slow, err := saiyan.DialServer(addr)
	if err != nil {
		t.Fatalf("slow client dial: %v", err)
	}
	defer slow.Close()
	if err := slow.Subscribe(true, true, false, false); err != nil {
		t.Fatal(err)
	}
	type slowResult struct {
		statsSeen int
		drops     uint64
		err       error
	}
	slowDone := make(chan slowResult, 1)
	go func() {
		var res slowResult
		for {
			ev, err := slow.Next()
			if err != nil {
				res.err = err
				slowDone <- res
				return
			}
			switch ev.Kind {
			case saiyan.ServerEventStats:
				res.statsSeen++
				if d := ev.Stats.FramesDropped + ev.Stats.MetricsDropped; d > res.drops {
					res.drops = d
				}
			case saiyan.ServerEventBye:
				slowDone <- res
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	// Churn: connect, read one event, vanish without a goodbye.
	churn, err := saiyan.DialServer(addr)
	if err != nil {
		t.Fatalf("churn client dial: %v", err)
	}
	if err := churn.Subscribe(true, true, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := churn.Next(); err != nil {
		t.Fatalf("churn client first event: %v", err)
	}
	churn.Close()

	// Read the pipe to EOF before Wait: Wait closes StdoutPipe, and a
	// Wait that runs first can drop the final snapshot line unread.
	<-drained
	if err := serve.Wait(); err != nil {
		t.Fatalf("serve exited with %v", err)
	}

	transcript := <-watchOut
	if strings.HasPrefix(transcript, "WATCH-ERROR") {
		t.Fatalf("watch failed:\n%s", transcript)
	}
	framesSeen := strings.Count(transcript, "\nframe ")
	reportsSeen := strings.Count(transcript, "\nepoch ")
	if framesSeen < 30 {
		t.Errorf("watch saw %d frame lines, want >= 30:\n%s", framesSeen, transcript)
	}
	if reportsSeen < epochs/2 {
		t.Errorf("watch saw %d epoch reports, want >= %d", reportsSeen, epochs/2)
	}
	if !strings.Contains(transcript, "bye: server shut down cleanly") {
		t.Errorf("watch transcript misses the clean bye:\n%s", transcript)
	}

	res := <-slowDone
	if res.err != nil && !errors.Is(res.err, io.EOF) {
		t.Fatalf("slow client stream: %v", res.err)
	}
	if res.statsSeen == 0 {
		t.Error("slow client never received its delivery/drop accounting")
	}
	t.Logf("watch: %d frames, %d reports; slow client: %d stats events, max %d drops reported",
		framesSeen, reportsSeen, res.statsSeen, res.drops)

	if !strings.Contains(serveRest.String(), fmt.Sprintf("epochs=%d", epochs)) {
		t.Errorf("serve final snapshot misses epochs=%d:\n%s", epochs, serveRest.String())
	}
}

// TestHealthCLIE2E smokes the link-health plane through the real binary:
// `serve -listen -http` with the default mid-run degradation, a
// `watch -health` subscriber reading deltas off the wire, and the
// `health` subcommand scraping /health + /timeseries until the stock
// prr-degraded rule fires.
func TestHealthCLIE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e smoke builds and runs the binary; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	bin := filepath.Join(t.TempDir(), "saiyan")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const epochs = 12
	serve := exec.CommandContext(ctx, bin, "serve",
		"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-epochs", fmt.Sprint(epochs), "-tags", "4", "-frames", "2",
		"-workers", "2", "-gap", "400ms")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	serveExited := make(chan error, 1)

	// The daemon prints the wire address first, then the telemetry URL.
	sc := bufio.NewScanner(stdout)
	var wireAddr, httpURL string
	// Check-before-Scan: the daemon prints nothing between its address
	// lines and the final snapshot, so one extra Scan here would block
	// until shutdown.
	for httpURL == "" && sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "serving on ") {
			wireAddr = strings.Fields(strings.TrimPrefix(line, "serving on "))[0]
		}
		if strings.HasPrefix(line, "telemetry on ") {
			httpURL = strings.Fields(strings.TrimPrefix(line, "telemetry on "))[0]
		}
	}
	if wireAddr == "" || httpURL == "" {
		t.Fatalf("serve never printed its addresses (wire=%q http=%q): %v", wireAddr, httpURL, sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
		serveExited <- serve.Wait()
	}()

	// Wire-plane subscriber: watch -health only, leaving after a few
	// epoch reports would never fire (metrics carries the reports), so
	// ride until the server's bye.
	watch := exec.CommandContext(ctx, bin, "watch", "-frames=false", "-metrics=false", "-health", wireAddr)
	watchOut := make(chan string, 1)
	go func() {
		out, err := watch.CombinedOutput()
		if err != nil {
			watchOut <- fmt.Sprintf("WATCH-ERROR %v\n%s", err, out)
			return
		}
		watchOut <- string(out)
	}()

	// HTTP-plane scrape: poll the health subcommand until the stock
	// prr-degraded rule shows up firing (the default -degrade 2:0:12 jam
	// drives channel 0's PRR under the windowed-mean threshold).
	deadline := time.Now().Add(90 * time.Second)
	var lastReport string
	for {
		out, err := exec.CommandContext(ctx, bin, "health", httpURL).CombinedOutput()
		lastReport = string(out)
		if err == nil && strings.Contains(lastReport, "prr-degraded") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health subcommand never reported prr-degraded; last output:\n%s", lastReport)
		}
		time.Sleep(500 * time.Millisecond)
	}
	if !strings.ContainsAny(lastReport, "▁▂▃▄▅▆▇█") {
		t.Errorf("health report has no sparkline:\n%s", lastReport)
	}
	if !strings.Contains(lastReport, "channel.0.prr") {
		t.Errorf("health report misses the channel.0.prr series:\n%s", lastReport)
	}

	if err := <-serveExited; err != nil {
		t.Fatalf("serve exited with %v", err)
	}
	transcript := <-watchOut
	if strings.HasPrefix(transcript, "WATCH-ERROR") {
		t.Fatalf("watch -health failed:\n%s", transcript)
	}
	if !strings.Contains(transcript, "health: epoch") {
		t.Errorf("watch -health transcript carries no health deltas:\n%s", transcript)
	}
	if !strings.Contains(transcript, "prr-degraded") {
		t.Errorf("watch -health transcript misses the firing alert:\n%s", transcript)
	}
}
