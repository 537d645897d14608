package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"saiyan"
)

// serviceSpec is the closed-loop gateway behind a wire server, the way
// `saiyan serve -listen -http` runs it: every telemetry plane attached and
// two subscribers on loopback. Epochs Warmup onward are timed.
type serviceSpec struct {
	Tags, FramesPerTag int
	Warmup             int // epochs served before timing starts
}

func (c serviceSpec) gatewayConfig(seed uint64) saiyan.GatewayConfig {
	cfg := saiyan.DefaultGatewayConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Channels = 2
	cfg.Tags = c.Tags
	cfg.MinM, cfg.MaxM = 20, 80
	cfg.FramesPerTag = c.FramesPerTag
	cfg.ChunkSamples = chunkSamples
	// A join and a departure every 4 epochs keep the population stable.
	cfg.JoinEvery, cfg.LeaveEvery = 4, 4
	cfg.MobilitySigma = 0.05
	cfg.Degrade = []saiyan.GatewayDegradation{{Epoch: 4, Channel: 1, AttenDB: 12}}
	return cfg
}

// deployment is one running service: gateway, telemetry planes, server and
// subscribers.
type deployment struct {
	gw     *saiyan.Gateway
	health *saiyan.HealthStore
	cancel context.CancelFunc
	served chan error // Serve's result
	full   *subscriber
	meter  *subscriber // metrics-only
}

// start builds a deployment, starts serving and subscribes both clients.
func (c serviceSpec) start(o runOpts) (*deployment, error) {
	cfg := c.gatewayConfig(o.seed)
	reg := saiyan.NewObsRegistry()
	health, err := saiyan.NewHealthStore(saiyan.HealthOptions{Rules: saiyan.DefaultHealthRules()})
	if err != nil {
		return nil, err
	}
	rec := saiyan.NewFlightRecorder(saiyan.FlightOptions{Shards: workers + 1})
	cfg.Metrics, cfg.Flight, cfg.Health = reg, rec, health
	gw, err := saiyan.NewGateway(cfg)
	if err != nil {
		return nil, err
	}
	// The client queues are deeper than the defaults (256 frames, 16
	// metrics messages) so that a subscriber starved for a moment by a busy
	// host still loses nothing: the checks require lossless delivery.
	srv, err := saiyan.NewServer(saiyan.ServerConfig{
		Gateway: gw, Metrics: reg, Flight: rec, Health: health,
		FrameQueue: 4096, MetricsQueue: 256,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &deployment{gw: gw, health: health, cancel: cancel, served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(ctx) }()

	if d.full, err = subscribe(srv.Addr().String(), true, c.Warmup, o, cancel); err != nil {
		return nil, errors.Join(fmt.Errorf("full subscriber: %w", err), d.stop())
	}
	if d.meter, err = subscribe(srv.Addr().String(), false, c.Warmup, o, nil); err != nil {
		return nil, errors.Join(fmt.Errorf("metrics subscriber: %w", err), d.stop())
	}
	return d, nil
}

// stop cancels serving and waits for Serve and both subscribers to end,
// returning their errors.
func (d *deployment) stop() error {
	d.cancel()
	err := <-d.served
	for _, s := range []*subscriber{d.full, d.meter} {
		if s != nil {
			<-s.done
			s.c.Close()
			err = errors.Join(err, s.err)
		}
	}
	return err
}

func (c serviceSpec) run(o runOpts) (*report, error) {
	rep := &report{ops: "epochs", e2e: map[string]float64{}}

	// Set-up: build and tear down setupReps deployments, keeping the last.
	// setup_s is the median time from gateway.New until both subscribers
	// hold the report of the last warm-up epoch, when timing starts.
	var setup []float64
	var d *deployment
	for i := range setupReps {
		t0 := time.Now()
		dep, err := c.start(o)
		if err != nil {
			return nil, err
		}
		for _, s := range []*subscriber{dep.full, dep.meter} {
			select {
			case <-s.warm:
			case <-s.done:
				return nil, fmt.Errorf("subscriber ended during the warm-up: %w", dep.stop())
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := dep.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up deployment %d: %w", i, err)
			}
			continue
		}
		d = dep
	}

	// The full subscriber ends the timed window (see subscriber.read).
	<-d.full.done
	if err := d.stop(); err != nil {
		return nil, err
	}
	full, meter := d.full, d.meter
	final, err := json.Marshal(d.gw.Snapshot())
	if err != nil {
		return nil, err
	}
	wire, err := json.Marshal(full.snapAfter)
	if err != nil {
		return nil, err
	}

	// Checks: gap-free reports from the warm-up to the end, identical on
	// both subscribers; one frame event per scheduled frame; no drops; the
	// last snapshot on the wire equal to the gateway's own.
	reports := full.reports
	for i := 1; i < len(reports); i++ {
		if reports[i].Epoch != reports[i-1].Epoch+1 {
			rep.problem("full subscriber epoch reports jump from %d to %d", reports[i-1].Epoch, reports[i].Epoch)
		}
	}
	timed := reports[c.Warmup-reports[0].Epoch:]
	arrivals := full.arrivals[c.Warmup-reports[0].Epoch-1:]
	var sum saiyan.GatewayEpochReport
	for _, r := range timed {
		sum.FramesScheduled += r.FramesScheduled
		sum.Retransmits += r.Retransmits
		sum.CmdsSent += r.CmdsSent
		sum.CmdsDelivered += r.CmdsDelivered
	}
	if sum.FramesScheduled != full.frames {
		rep.problem("full subscriber got %d frame events for %d scheduled frames", full.frames, sum.FramesScheduled)
	}
	if meter.frames != 0 {
		rep.problem("metrics-only subscriber got %d frame events", meter.frames)
	}
	if !reflect.DeepEqual(meter.reports[max(len(meter.reports)-len(timed), 0):], timed) {
		rep.problem("the two subscribers saw different timed epoch reports")
	}
	if string(final) != string(wire) {
		rep.problem("last wire snapshot differs from the gateway's final snapshot")
	}
	drops := int(full.stats.FramesDropped + full.stats.MetricsDropped + meter.stats.FramesDropped + meter.stats.MetricsDropped)
	if drops != 0 {
		rep.problem("fanout dropped %d messages", drops)
	}
	for _, s := range []*subscriber{full, meter} {
		rep.problems = append(rep.problems, s.errs...)
	}

	n := len(timed)
	wall := arrivals[n].Sub(arrivals[0])
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = ms(arrivals[i+1].Sub(arrivals[i]))
	}
	rep.opsTimed = n
	rep.attempted = full.frames
	rep.failed = drops + max(sum.FramesScheduled-full.frames, full.frames-sum.FramesScheduled)
	rep.e2e["setup_s"] = median(setup)
	rep.e2e["frames_per_s"] = float64(full.frames) / wall.Seconds()
	rep.e2e["latency_p50_ms"] = percentile(lat, 50)
	rep.e2e["latency_p95_ms"] = percentile(lat, 95)
	rep.e2e["recovery"] = float64(full.correct) / float64(full.frames)
	rep.e2e["allocs_per_frame"] = float64(full.mallocs) / float64(full.frames)
	rep.e2e["heap_mb"] = heapMB()
	runtime.KeepAlive(d)

	if o.traced {
		rep.layer = layerValues()
		c.layers(rep, d, sum, n, wall, drops)
	}
	return rep, nil
}

// layers fills the per-layer metrics from the registry dumps and snapshots
// the full subscriber received at the edges of the timed window, from sum
// (the timed epoch reports added up) and from the health journal.
func (c serviceSpec) layers(rep *report, d *deployment, sum saiyan.GatewayEpochReport, epochs int, wall time.Duration, drops int) {
	full := d.full
	n := float64(epochs)
	delta := func(name string) (sum, count, value float64) {
		a, b := findMetric(full.obsBefore, name), findMetric(full.obsLast, name)
		return b.Sum - a.Sum, float64(b.Count - a.Count), b.Value - a.Value
	}
	stage := func(s string) float64 {
		sum, _, _ := delta(`saiyan_gateway_stage_seconds{stage="` + s + `"}`)
		return sum
	}
	render, decode, ingest, control, epoch := stage("render"), stage("decode"), stage("ingest"), stage("control"), stage("epoch")
	decodeSum, decodeCount, _ := delta("saiyan_pipeline_decode_seconds")
	_, _, bytes := delta("saiyan_server_bytes_written_total")
	emitted := float64(full.snapAfter.WindowsEmitted - full.snapBefore.WindowsEmitted)
	unmatched := float64(full.snapAfter.WindowsUnmatched - full.snapBefore.WindowsUnmatched)

	rep.layer["sim.render_ms_per_frame"] = 1e3 * render / float64(sum.FramesScheduled)
	rep.layer["stream.setup_ms"], rep.layer["core.prewarm_ms"] = c.probeSetup()
	rep.layer["stream.window_match_ratio"] = (emitted - unmatched) / emitted
	rep.layer["core.decode_us_per_window"] = 1e6 * decodeSum / decodeCount
	rep.layer["pipeline.worker_busy_share"] = decodeSum / (workers * decode)
	rep.layer["gateway.render_share"] = render / epoch
	rep.layer["gateway.decode_ms_per_epoch"] = 1e3 * decode / n
	rep.layer["gateway.control_ms_per_epoch"] = 1e3 * control / n
	rep.layer["gateway.fold_ms_per_epoch"] = 1e3 * (epoch - ingest - control) / n
	rep.layer["gateway.retransmits_per_epoch"] = float64(sum.Retransmits) / n
	if sum.CmdsSent > 0 {
		rep.layer["gateway.cmd_delivery_ratio"] = float64(sum.CmdsDelivered) / float64(sum.CmdsSent)
	}
	rep.layer["server.publish_ms_per_epoch"] = (ms(wall) - 1e3*epoch) / n
	rep.layer["server.bytes_per_epoch"] = bytes / n
	rep.layer["server.queue_hwm"] = findMetric(full.obsLast, "saiyan_server_queue_hwm").Value
	rep.layer["server.fanout_drops"] = float64(drops)
	rep.layer["flight.dumps_per_epoch"] = float64(full.dumps) / n
	fired := 0
	for _, a := range d.health.Journal(0) {
		if a.State == saiyan.HealthStateFiring {
			fired++
		}
	}
	rep.layer["health.alerts_fired"] = float64(fired)
	// Every plane is on in the timed run itself; there is no separate
	// traced run to compare with.
	rep.layer["trace.overhead_ratio"] = 1
}

// probeSetup times the two set-up calls an epoch makes for each rate
// group, outside the gateway: the segmenter (hunt calibration) and the
// prewarmed decode master. It returns the medians of five calls, in ms.
func (c serviceSpec) probeSetup() (segmenter, prewarm float64) {
	demod := c.gatewayConfig(0).Demod
	var seg, pre []float64
	for range 5 {
		t0 := time.Now()
		if _, err := saiyan.NewStreamSource(saiyan.StreamConfig{Demod: demod}, &saiyan.TagStream{}, chunkSamples); err != nil {
			return math.NaN(), math.NaN()
		}
		seg = append(seg, ms(time.Since(t0)))
		t0 = time.Now()
		d, err := saiyan.NewDemodulator(demod)
		if err != nil {
			return math.NaN(), math.NaN()
		}
		d.PrewarmAuto()
		pre = append(pre, ms(time.Since(t0)))
	}
	return median(seg), median(pre)
}

// subscriber is one wire client and what it received.
type subscriber struct {
	c    *saiyan.ServerClient
	warm chan struct{} // closed at the report of the last warm-up epoch
	done chan struct{} // closed when the reader returns
	err  error         // the reader's result, set before done closes

	reports  []saiyan.GatewayEpochReport // every report, in arrival order
	arrivals []time.Time
	frames   int // frame events of timed epochs
	correct  int // ... decoded without symbol error
	dumps    int // flight dumps of timed epochs
	stats    saiyan.ServerClientStats
	mallocs  uint64 // heap allocations over the timed window

	// Registry dumps and snapshots after the last warm-up epoch and after
	// the latest epoch.
	obsBefore, obsLast    []saiyan.MetricSnapshot
	snapBefore, snapAfter saiyan.GatewayStats
	errs                  []string
}

// subscribe dials the server and starts the reader. The full subscriber
// (all four streams) also owns stopping the service: pass its cancel.
func subscribe(addr string, full bool, warmup int, o runOpts, cancel context.CancelFunc) (*subscriber, error) {
	c, err := saiyan.DialServer(addr)
	if err != nil {
		return nil, err
	}
	if err := c.Subscribe(full, true, full, full); err != nil {
		c.Close()
		return nil, err
	}
	s := &subscriber{c: c, warm: make(chan struct{}), done: make(chan struct{})}
	go func() {
		s.err = s.read(warmup, o, cancel)
		close(s.done)
	}()
	return s, nil
}

// read consumes the stream until the server says bye. For the full
// subscriber it also ends the timed window: once the budget is spent it
// asks the server to pause, then sends a capture-stop, which the server
// rejects because no capture runs. Control requests are applied in order
// at an epoch boundary, so that rejection arrives only once the pause
// holds: no epoch is in flight, and cancelling then stops the server
// cleanly between epochs.
func (s *subscriber) read(warmup int, o runOpts, cancel context.CancelFunc) error {
	var start time.Time
	var m0 uint64
	stopping := false
	epoch := -1 // epoch of the latest report
	for {
		ev, err := s.c.Next()
		if err != nil {
			return err
		}
		switch ev.Kind {
		case saiyan.ServerEventEpoch:
			now := time.Now()
			epoch = ev.Epoch.Epoch
			if start.IsZero() && epoch >= warmup {
				return fmt.Errorf("got the report of epoch %d without that of the last warm-up epoch %d", epoch, warmup-1)
			}
			s.reports = append(s.reports, ev.Epoch)
			s.arrivals = append(s.arrivals, now)
			if epoch == warmup-1 {
				close(s.warm)
				start, m0 = now, mallocs()
			}
			if cancel != nil && !stopping && epoch >= warmup-1+o.minOps && now.Sub(start) >= o.seconds {
				stopping = true
				if err := s.c.Pause(); err != nil {
					return err
				}
				if err := s.c.StopCapture(); err != nil {
					return err
				}
			}
		case saiyan.ServerEventSnapshot:
			if epoch == warmup-1 {
				s.snapBefore = *ev.Snapshot
			}
			s.snapAfter = *ev.Snapshot
		case saiyan.ServerEventObs:
			if epoch == warmup-1 {
				s.obsBefore = ev.Obs
			}
			s.obsLast = ev.Obs
		case saiyan.ServerEventFrame:
			if ev.Frame.Epoch >= warmup {
				s.frames++
				if ev.Frame.Correct {
					s.correct++
				}
			}
		case saiyan.ServerEventFlight:
			if ev.Flight.Epoch >= warmup {
				s.dumps++
			}
		case saiyan.ServerEventStats:
			s.stats = ev.Stats
		case saiyan.ServerEventError:
			if !stopping {
				s.errs = append(s.errs, "server error: "+ev.Err)
				continue
			}
			s.mallocs = mallocs() - m0
			cancel()
		case saiyan.ServerEventBye:
			return nil
		}
	}
}

// findMetric returns the named series of a registry dump (zero if absent).
func findMetric(dump []saiyan.MetricSnapshot, name string) saiyan.MetricSnapshot {
	for _, m := range dump {
		if m.Name == name {
			return m
		}
	}
	return saiyan.MetricSnapshot{}
}
