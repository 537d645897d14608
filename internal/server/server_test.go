package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"saiyan/internal/chunk"
	"saiyan/internal/gateway"
	"saiyan/internal/health"
)

const testSeed = 20220404

// testGateway builds a small, fast deployment for serving tests.
func testGateway(t *testing.T, workers int) *gateway.Gateway {
	t.Helper()
	cfg := gateway.DefaultConfig()
	cfg.Seed = testSeed
	cfg.Workers = workers
	cfg.Channels = 2
	cfg.Tags = 5
	cfg.FramesPerTag = 2
	g, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSendDropPolicy pins the backpressure contract at the unit level: a
// full queue counts a drop, never blocks.
func TestSendDropPolicy(t *testing.T) {
	s := &Server{}
	c := &client{frames: make(chan []byte, 1)}
	for i := 0; i < 3; i++ {
		s.send(c, c.frames, []byte{1}, &c.framesSent, &c.framesDropped)
	}
	if sent, dropped := c.framesSent.Load(), c.framesDropped.Load(); sent != 1 || dropped != 2 {
		t.Fatalf("sent=%d dropped=%d, want 1/2", sent, dropped)
	}
}

// TestServeBackpressureAndChurn is the serving acceptance test: one server,
// a fast subscriber, a deliberately slow subscriber (tiny socket buffers,
// not reading), and a third client that connects and vanishes mid-run. The
// epoch loop must finish every epoch without blocking on the slow client,
// the fast client must see a healthy share of the frame stream, and the
// slow client's stats must report the drops.
func TestServeBackpressureAndChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second serving run; covered by the dedicated e2e CI step")
	}
	const epochs = 14
	g := testGateway(t, 2)
	srv, err := New(Config{
		Gateway:      g,
		Epochs:       epochs,
		FrameQueue:   8,
		MetricsQueue: 8,
		WriteTimeout: 60 * time.Second, // never kick the slow client mid-test
		tuneConn: func(conn net.Conn) {
			if tcp, ok := conn.(*net.TCPConn); ok {
				tcp.SetWriteBuffer(1) // kernel-clamped minimum
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background()) }()
	addr := srv.Addr().String()

	// Fast subscriber: frames + metrics, drained promptly.
	fast, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if err := fast.Subscribe(true, true, false, false); err != nil {
		t.Fatal(err)
	}

	// Slow subscriber: tiny receive buffer and no reads until most of the
	// run is over, so the server's writes to it genuinely block.
	rawSlow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if tcp, ok := rawSlow.(*net.TCPConn); ok {
		tcp.SetReadBuffer(1)
	}
	slow, err := handshake(rawSlow)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if err := slow.Subscribe(true, true, false, false); err != nil {
		t.Fatal(err)
	}

	// Fast reader goroutine. When it has seen over half the epochs it
	// releases the slow client to start draining.
	var framesSeen, reportsSeen atomic.Int64
	release := make(chan struct{})
	fastDone := make(chan error, 1)
	go func() {
		released := false
		for {
			ev, err := fast.Next()
			if err != nil {
				fastDone <- err
				return
			}
			switch ev.Kind {
			case EventFrame:
				framesSeen.Add(1)
			case EventEpoch:
				if reportsSeen.Add(1) >= epochs/2 && !released {
					released = true
					close(release)
				}
			case EventBye:
				fastDone <- nil
				return
			}
		}
	}()

	// Mid-run churn: a client that connects, subscribes, reads a little,
	// and disconnects without a goodbye.
	churn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := churn.Subscribe(true, true, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := churn.Next(); err != nil {
		t.Fatalf("churn client first event: %v", err)
	}
	churn.Close()

	// Slow client sits on its unread socket until released, then drains.
	var slowDrops uint64
	slowDone := make(chan error, 1)
	go func() {
		select {
		case <-release:
		case <-time.After(2 * time.Minute):
		}
		for {
			ev, err := slow.Next()
			if err != nil {
				slowDone <- err
				return
			}
			switch ev.Kind {
			case EventStats:
				if d := ev.Stats.FramesDropped + ev.Stats.MetricsDropped; d > slowDrops {
					slowDrops = d
				}
			case EventBye:
				slowDone <- nil
				return
			}
		}
	}()

	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if err := <-fastDone; err != nil {
		t.Fatalf("fast client stream: %v", err)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow client stream: %v", err)
	}

	snap := g.Snapshot()
	if snap.Epochs != epochs {
		t.Fatalf("served %d epochs, want %d — the epoch loop stalled", snap.Epochs, epochs)
	}
	if got := framesSeen.Load(); got < 40 {
		t.Errorf("fast client saw %d frame events, want >= 40", got)
	}
	// The client subscribes while epoch 0 is already running, so the first
	// report or two can legitimately predate the subscription.
	if reportsSeen.Load() < epochs-3 {
		t.Errorf("fast client saw %d epoch reports of %d", reportsSeen.Load(), epochs)
	}
	if slowDrops == 0 {
		t.Error("slow client reported zero drops; backpressure policy untested")
	}
	t.Logf("fast: %d frames, %d reports; slow: %d drops reported",
		framesSeen.Load(), reportsSeen.Load(), slowDrops)
}

// TestSnapshotDeterministicAcrossWorkers pins the acceptance criterion
// that serving does not perturb the gateway's determinism: the epoch-5
// snapshot payload received over the wire is byte-identical at 1, 4, and
// 8 workers.
func TestSnapshotDeterministicAcrossWorkers(t *testing.T) {
	const epochs = 5
	var first []byte
	for _, workers := range []int{1, 4, 8} {
		g := testGateway(t, workers)
		srv, err := New(Config{Gateway: g, Epochs: epochs})
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(context.Background()) }()

		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(false, true, false, false); err != nil {
			t.Fatal(err)
		}
		var last []byte
		snaps := 0
		for {
			ev, err := c.Next()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if ev.Kind == EventSnapshot {
				snaps++
				last, err = jsonBytes(ev.Snapshot)
				if err != nil {
					t.Fatal(err)
				}
			}
			if ev.Kind == EventBye {
				break
			}
		}
		c.Close()
		if err := <-serveDone; err != nil {
			t.Fatalf("workers=%d serve: %v", workers, err)
		}
		// The subscription can land after epoch 0 has already published;
		// what matters is that the FINAL snapshot arrived, and the bye
		// ordering guarantees `last` is it.
		if snaps < epochs-2 {
			t.Fatalf("workers=%d: received %d snapshots of %d", workers, snaps, epochs)
		}
		if first == nil {
			first = last
		} else if !bytes.Equal(first, last) {
			t.Errorf("workers=%d: final snapshot differs from workers=1:\n%s\nvs\n%s", workers, last, first)
		}
	}
}

// TestControlPlaneAndCapture drives the control plane end to end: a rate
// override lands (visible in the final snapshot), an invalid override is
// rejected asynchronously, a pause/resume cycle survives, and a
// server-side capture records the frame stream.
func TestControlPlaneAndCapture(t *testing.T) {
	const epochs = 6
	g := testGateway(t, 2)
	capDir := t.TempDir()
	srv, err := New(Config{Gateway: g, Epochs: epochs, EpochGap: 20 * time.Millisecond, CaptureDir: capDir})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background()) }()

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if h := c.Hello(); h.Protocol != Version || h.Channels != 2 {
		t.Fatalf("hello: %+v", h)
	}
	if err := c.Subscribe(false, true, false, false); err != nil {
		t.Fatal(err)
	}
	capPath := filepath.Join(capDir, "frames.cap")
	if err := c.StartCapture("frames.cap"); err != nil {
		t.Fatal(err)
	}
	if err := c.OverrideRate(-1, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.OverrideRate(0, 99); err != nil { // invalid: outside adapter bounds
		t.Fatal(err)
	}
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := c.write(msgResume, nil); err != nil {
		t.Fatal(err)
	}

	errorsSeen, reports := 0, 0
	captureStopped := false
	for {
		ev, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case EventError:
			errorsSeen++
		case EventEpoch:
			reports++
			if reports == epochs-2 && !captureStopped {
				captureStopped = true
				if err := c.StopCapture(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ev.Kind == EventBye {
			break
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// Subscribing races the already-running epoch 0; joining a report or
	// two late is stream semantics, not loss.
	if reports < epochs-2 {
		t.Fatalf("received %d epoch reports of %d", reports, epochs)
	}
	if errorsSeen == 0 {
		t.Error("invalid rate override was never rejected")
	}
	snap := g.Snapshot()
	if snap.RateSwitches == 0 {
		t.Error("rate override never landed: no rate switches in the final snapshot")
	}
	events, err := ReadCapture(capPath)
	if err != nil {
		t.Fatalf("read capture: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("capture file holds no frame events")
	}
	for _, ev := range events {
		if ev.Epoch < 0 || ev.Epoch >= epochs || ev.Tag < 0 {
			t.Fatalf("capture holds implausible event: %+v", ev)
		}
	}
	t.Logf("capture: %d frame events across %d epochs", len(events), epochs)
}

// TestCaptureAccessPolicy pins the capture control's filesystem policy: a
// server without a configured CaptureDir rejects every captureStart, and a
// configured server rejects paths that would escape the directory.
func TestCaptureAccessPolicy(t *testing.T) {
	collectErrors := func(t *testing.T, cfg Config, paths ...string) []string {
		t.Helper()
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(context.Background()) }()
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Subscribe(false, true, false, false); err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if err := c.StartCapture(p); err != nil {
				t.Fatal(err)
			}
		}
		var rejections []string
		for {
			ev, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind == EventError {
				rejections = append(rejections, ev.Err)
			}
			if ev.Kind == EventBye {
				break
			}
		}
		if err := <-serveDone; err != nil {
			t.Fatalf("serve: %v", err)
		}
		return rejections
	}

	t.Run("disabled without CaptureDir", func(t *testing.T) {
		g := testGateway(t, 1)
		errs := collectErrors(t, Config{Gateway: g, Epochs: 3, EpochGap: 10 * time.Millisecond}, "frames.cap")
		if len(errs) != 1 || !strings.Contains(errs[0], "capture disabled") {
			t.Fatalf("captureStart on a capture-less server: rejections %q, want one mentioning 'capture disabled'", errs)
		}
	})

	t.Run("escaping paths rejected", func(t *testing.T) {
		g := testGateway(t, 1)
		dir := filepath.Join(t.TempDir(), "captures")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		escapee := filepath.Join("..", "escape.cap")
		errs := collectErrors(t, Config{Gateway: g, Epochs: 3, EpochGap: 10 * time.Millisecond, CaptureDir: dir},
			escapee, "/abs/evil.cap", "")
		if len(errs) != 3 {
			t.Fatalf("3 escaping captureStarts produced %d rejections: %q", len(errs), errs)
		}
		for _, e := range errs {
			if !strings.Contains(e, "escapes the capture directory") {
				t.Errorf("rejection %q does not name the policy", e)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, escapee)); !os.IsNotExist(err) {
			t.Fatalf("escaping capture path was created outside the capture dir (stat err: %v)", err)
		}
	})
}

// TestWriteLoopDrainFailureUnblocksShutdown is the regression test for the
// shutdown deadlock: when a write fails during the stop-drain (a subscriber
// that stopped reading), the writer must still drop the client so readLoop
// unblocks and shutdown's wg.Wait can return. net.Pipe gives a peer that
// never reads, so the drain write reliably hits its deadline.
func TestWriteLoopDrainFailureUnblocksShutdown(t *testing.T) {
	srvConn, peer := net.Pipe()
	defer peer.Close()
	s := &Server{
		cfg:     Config{WriteTimeout: 50 * time.Millisecond, Logf: func(string, ...any) {}},
		clients: make(map[*client]struct{}),
	}
	c := &client{
		conn:    srvConn,
		name:    "stalled-pipe",
		frames:  make(chan []byte, 4),
		metrics: make(chan []byte, 4),
		stop:    make(chan struct{}),
	}
	s.clients[c] = struct{}{}
	c.frames <- chunk.Append(nil, msgFrame, make([]byte, frameEventBytes))
	c.stopOnce.Do(func() { close(c.stop) })

	s.wg.Add(2)
	go s.readLoop(c)
	go s.writeLoop(c)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain-path write failure left readLoop parked on an open conn; shutdown would hang")
	}
}

// TestServeErrorFarewell pins the failure farewell: writers told to stop by
// a failing Serve send the error as the stream's final message instead of
// claiming a clean bye.
func TestServeErrorFarewell(t *testing.T) {
	srvConn, peer := net.Pipe()
	s := &Server{
		cfg:     Config{WriteTimeout: time.Second, Logf: func(string, ...any) {}},
		clients: make(map[*client]struct{}),
	}
	c := &client{
		conn:    srvConn,
		name:    "farewell-pipe",
		frames:  make(chan []byte, 1),
		metrics: make(chan []byte, 1),
		stop:    make(chan struct{}),
	}
	s.clients[c] = struct{}{}
	s.mu.Lock()
	s.farewell = chunk.Append(nil, msgError, []byte(`{"error":"gateway exploded"}`))
	s.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	s.wg.Add(1)
	go s.writeLoop(c)

	typ, payload, err := wire.Read(peer)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgError || !strings.Contains(string(payload), "gateway exploded") {
		t.Fatalf("farewell message type=0x%02x payload=%q, want the serve error", typ, payload)
	}
	if _, _, err := wire.Read(peer); err == nil {
		t.Fatal("a bye followed the error farewell; the stream should just end")
	}
	peer.Close()
	s.wg.Wait()
}

// TestHealthStreamOverWire runs a server with a health store attached and
// checks the 0x19 plane end to end: a subscriber with the health bit set
// receives per-epoch deltas carrying the gateway's series points, alert
// transitions arrive on the same stream, and the server's own
// fanout-drops series is registered in the store.
func TestHealthStreamOverWire(t *testing.T) {
	const epochs = 6
	st, err := health.New(health.Options{Rules: []health.Rule{
		// Guaranteed to fire, but not until epoch 3: every epoch of this
		// deployment schedules frames, so the breach streak builds from
		// epoch 0 and the transition lands after the subscription is up.
		{Name: "always", Series: "gateway.frames_scheduled", Kind: health.KindConsecutiveBreach,
			Op: health.OpAbove, Threshold: 0, Consecutive: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	gcfg := gateway.DefaultConfig()
	gcfg.Seed = testSeed
	gcfg.Workers = 2
	gcfg.Channels = 2
	gcfg.Tags = 5
	gcfg.FramesPerTag = 2
	gcfg.Health = st
	g, err := gateway.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Gateway: g, Epochs: epochs, EpochGap: 20 * time.Millisecond, Health: st})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background()) }()

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(false, false, false, true); err != nil {
		t.Fatal(err)
	}
	deltas := 0
	pointsSeen := false
	alertSeen := false
	for {
		ev, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == EventBye {
			break
		}
		if ev.Kind != EventHealth {
			t.Fatalf("unexpected event on a health-only subscription: %v", ev.Kind)
		}
		deltas++
		if len(ev.Health.Points) > 0 {
			pointsSeen = true
			for _, p := range ev.Health.Points {
				if p.Series == "server.fanout_drops" {
					// The server samples its drop counter after the
					// gateway seals the epoch, so the point rides the
					// next delta: documented one-epoch lag.
					if p.Epoch != ev.Health.Epoch-1 {
						t.Errorf("server.fanout_drops labeled epoch %d inside delta for epoch %d; want the one-epoch lag",
							p.Epoch, ev.Health.Epoch)
					}
					continue
				}
				if p.Epoch != ev.Health.Epoch {
					t.Errorf("point %s labeled epoch %d inside delta for epoch %d",
						p.Series, p.Epoch, ev.Health.Epoch)
				}
			}
		}
		for _, a := range ev.Health.Alerts {
			if a.Rule == "always" && a.State == health.StateFiring {
				alertSeen = true
			}
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The subscription may land after epoch 0 published, but most of the
	// run must have streamed through.
	if deltas < epochs-2 {
		t.Fatalf("received %d health deltas of %d epochs", deltas, epochs)
	}
	if !pointsSeen {
		t.Error("no health delta carried series points")
	}
	if !alertSeen {
		t.Error("the always-firing rule never surfaced on the wire")
	}
	// Serving registered the server-plane series alongside the gateway's.
	if st.TimeseriesJSON("server.fanout_drops", 0) == nil {
		t.Errorf("server.fanout_drops not registered; series: %s", st.TimeseriesJSON("", 0))
	}
}

// jsonBytes re-marshals a snapshot deterministically for comparison.
func jsonBytes(v any) ([]byte, error) {
	return json.Marshal(v)
}
