package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"saiyan/internal/chunk"
	"saiyan/internal/flight"
	"saiyan/internal/gateway"
	"saiyan/internal/health"
	"saiyan/internal/obs"
)

// Config assembles a protocol server around a gateway. The zero value of
// every field except Gateway is usable: defaults are documented per field
// and filled by New.
type Config struct {
	// Gateway is the closed-loop service to expose. Required; the server
	// owns its epoch loop and frame hook from New until Serve returns.
	Gateway *gateway.Gateway

	// Addr is the TCP listen address. Default "127.0.0.1:0" (loopback,
	// kernel-assigned port — read it back with Addr).
	Addr string

	// Epochs stops the server after serving this many epochs. 0 serves
	// until the Serve context is cancelled.
	Epochs int

	// EpochGap idles between epochs, pacing the stream for human
	// consumers. Default 0 (serve back to back).
	EpochGap time.Duration

	// FrameQueue bounds each client's pending frame-event messages.
	// When the queue is full the epoch loop drops the event for that
	// client and counts the drop — it never blocks. Default 256.
	FrameQueue int

	// MetricsQueue bounds each client's pending metrics messages (epoch
	// reports, snapshots, client stats), same drop policy. Default 16.
	MetricsQueue int

	// WriteTimeout is the per-message write deadline; a client that
	// cannot accept a write within it is disconnected. Default 5s.
	WriteTimeout time.Duration

	// CaptureDir, when set, enables the captureStart control: the
	// client-requested path is resolved inside this directory and must
	// not escape it. Default "" — capture is disabled and every
	// captureStart request is rejected, so an unauthenticated client can
	// never name a filesystem path of its own choosing.
	CaptureDir string

	// Logf, when set, receives server lifecycle lines (client connects,
	// drops, control rejections). Default: silent.
	Logf func(format string, args ...any)

	// Metrics, when non-nil, receives the server's observability series
	// (connected clients, fanout drops, bytes written, write-deadline
	// evictions, per-client queue high-water mark) AND enables the
	// per-epoch obs wire message: after every served epoch the registry's
	// full dump is sent to metrics subscribers as a 0x17 message. The
	// caller typically shares one registry between the gateway and the
	// server so the dump covers every layer.
	Metrics *obs.Registry

	// Flight, when non-nil, enables the flight wire stream: every
	// anomaly-triggered black-box dump is encoded once and fanned out to
	// flight subscribers as a 0x18 message, and the frame fanout itself
	// appends fanout-stage spans into the recorder. Pass the same
	// recorder the gateway runs with (gateway.Config.Flight) so wire
	// dumps and /flight reads see one ring set.
	Flight *flight.Recorder

	// Health, when non-nil, enables the health wire stream: after every
	// served epoch the store's sealed Delta — raw series points plus SLO
	// alert transitions — is marshaled once and fanned out to health
	// subscribers as a 0x19 message. Pass the same store the gateway runs
	// with (gateway.Config.Health) so wire deltas and the /health and
	// /timeseries endpoints see one rollup set. The server also samples
	// its own fanout-drop total into the "server.fanout_drops" series at
	// each epoch boundary; being appended after the gateway's seal, those
	// points ride the *next* epoch's delta, and — mirroring client
	// behaviour — they are telemetry-grade, excluded from the plane's
	// determinism bar the way EpochReport.Elapsed is.
	Health *health.Store

	// tuneConn, when set, adjusts each accepted connection before the
	// handshake. Test hook: shrinking socket buffers makes a non-reading
	// subscriber exert real backpressure at test scale.
	tuneConn func(net.Conn)
}

// withDefaults fills zero fields and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Gateway == nil {
		return c, fmt.Errorf("server: Config.Gateway is required")
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Epochs < 0 {
		return c, fmt.Errorf("server: %d epochs < 0", c.Epochs)
	}
	if c.FrameQueue == 0 {
		c.FrameQueue = 256
	}
	if c.MetricsQueue == 0 {
		c.MetricsQueue = 16
	}
	if c.FrameQueue < 1 || c.MetricsQueue < 1 {
		return c, fmt.Errorf("server: queue bounds %d/%d < 1", c.FrameQueue, c.MetricsQueue)
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Hello is the server's first message to every client: the protocol
// version and a summary of the service state at connect time.
type Hello struct {
	Protocol   int `json:"protocol"`
	Epochs     int `json:"epochs"` // epochs served so far
	TagsActive int `json:"tags_active"`
	Channels   int `json:"channels"`
}

// ClientStats is the per-subscriber delivery accounting the server sends
// after every epoch: how many messages this client received and how many
// the backpressure policy dropped because its queues were full, plus the
// slow-consumer evidence — the deepest its queues ever got and the bytes
// actually written to its socket.
type ClientStats struct {
	Epoch          int    `json:"epoch"`
	FramesSent     uint64 `json:"frames_sent"`
	FramesDropped  uint64 `json:"frames_dropped"`
	MetricsSent    uint64 `json:"metrics_sent"`
	MetricsDropped uint64 `json:"metrics_dropped"`
	// QueueHWM is the high-water mark of this client's pending message
	// backlog (frames + metrics queues combined) over the connection's
	// lifetime.
	QueueHWM uint64 `json:"queue_hwm"`
	// BytesWritten is the total bytes successfully written to this
	// client's socket.
	BytesWritten uint64 `json:"bytes_written"`
}

// client is one connected subscriber.
type client struct {
	conn net.Conn
	name string

	subs atomic.Uint32 // sub* bits of the last subscribe message

	// frames and metrics carry fully framed messages; the epoch loop
	// enqueues without ever blocking (drop-and-count on a full queue) and
	// the client's writer goroutine drains them to the socket.
	frames  chan []byte
	metrics chan []byte

	// stop tells the writer to drain what is queued, send bye, and close.
	stop     chan struct{}
	stopOnce sync.Once

	framesSent     atomic.Uint64
	framesDropped  atomic.Uint64
	metricsSent    atomic.Uint64
	metricsDropped atomic.Uint64
	queueHWM       atomic.Uint64 // deepest combined queue backlog seen
	bytesWritten   atomic.Uint64 // bytes successfully written to the socket
}

// noteBacklog raises the client's queue high-water mark to n if deeper
// than anything seen before.
func (c *client) noteBacklog(n uint64) {
	for {
		old := c.queueHWM.Load()
		if old >= n || c.queueHWM.CompareAndSwap(old, n) {
			return
		}
	}
}

// controlOp is one decoded control request awaiting the epoch boundary.
type controlOp struct {
	from  *client
	typ   byte
	tag   int
	k     int
	moves []TagMove
	path  string
}

// Server runs a gateway epoch loop and serves its streams over TCP.
// Construct with New, run with Serve, find the bound address with Addr.
type Server struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	clients map[*client]struct{}
	hello   Hello
	closing bool

	// farewell, when non-nil, replaces the bye each writer sends after its
	// shutdown drain: a server stopping on a gateway failure says so with
	// an error message instead of claiming a clean shutdown.
	farewell []byte

	control chan controlOp
	paused  bool

	capture *captureWriter

	// snapJSON caches the latest epoch's marshaled gateway snapshot:
	// Gateway.Snapshot is not safe to take concurrently with the epoch
	// loop, so out-of-band consumers (the HTTP telemetry plane's
	// /snapshot) read this cache instead.
	snapJSON atomic.Value // []byte

	// met holds the server's observability handles; all fields are
	// nil-safe no-ops when Config.Metrics is unset.
	met serverObs

	// healthDrops mirrors the fanout-drop total into the health plane
	// (nil no-op handle when Config.Health is unset); fanoutDrops is the
	// plain counter behind it, kept separate from obs so the series
	// exists with metrics off.
	healthDrops *health.Series
	fanoutDrops atomic.Uint64

	wg sync.WaitGroup
}

// serverObs is the server's registered metric family.
type serverObs struct {
	clients   *obs.Gauge
	queueHWM  *obs.Gauge
	drops     *obs.Counter
	bytes     *obs.Counter
	evictions *obs.Counter
}

func newServerObs(r *obs.Registry) serverObs {
	if r == nil {
		return serverObs{}
	}
	return serverObs{
		clients:   r.Gauge("saiyan_server_clients", "connected subscribers"),
		queueHWM:  r.Gauge("saiyan_server_queue_hwm", "deepest pending-message backlog any client has reached"),
		drops:     r.Counter("saiyan_server_fanout_drops_total", "messages dropped because a client queue was full"),
		bytes:     r.Counter("saiyan_server_bytes_written_total", "bytes successfully written to client sockets"),
		evictions: r.Counter("saiyan_server_evictions_total", "clients disconnected because a write failed or missed its deadline"),
	}
}

// New validates cfg and binds the listen socket, so Addr is routable
// before Serve starts. The gateway must not be driven by anyone else
// between New and Serve returning.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		clients: make(map[*client]struct{}),
		control: make(chan controlOp, 64),
		met:     newServerObs(cfg.Metrics),
	}
	s.healthDrops = cfg.Health.Series("server.fanout_drops")
	snap := cfg.Gateway.Snapshot()
	s.hello = Hello{
		Protocol:   Version,
		Epochs:     snap.Epochs,
		TagsActive: snap.TagsActive,
		Channels:   len(snap.Channels),
	}
	return s, nil
}

// Addr is the bound listen address ("127.0.0.1:43125").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// SnapshotJSON returns the most recent served epoch's marshaled gateway
// snapshot, or nil before the first epoch completes. The returned bytes
// are shared; callers must not mutate them. Safe to call concurrently
// with Serve — this is the feed for the HTTP telemetry plane's /snapshot.
func (s *Server) SnapshotJSON() []byte {
	b, _ := s.snapJSON.Load().([]byte)
	return b
}

// Close releases the listen socket of a server that was never (or is no
// longer) serving. A running Serve call closes it itself on return.
func (s *Server) Close() error { return s.ln.Close() }

// Serve runs the epoch loop until ctx is cancelled or cfg.Epochs are
// served, fanning out frame events and metrics to subscribers and applying
// queued control requests at epoch boundaries. It returns nil on a clean
// stop (cancellation or epoch-count completion) and the epoch error if the
// gateway fails; on a clean stop subscribers see a final bye, on a failure
// they see the error message instead, so the two are distinguishable on
// the wire. Serve blocks; run it on its own goroutine if the caller needs
// to do anything else.
func (s *Server) Serve(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	g := s.cfg.Gateway
	g.SetFrameHook(s.onFrame)
	defer g.SetFrameHook(nil)
	if rec := s.cfg.Flight; rec != nil {
		rec.SetHook(s.onDump)
		defer rec.SetHook(nil)
	}

	s.wg.Add(1)
	go s.acceptLoop()

	var serveErr error
	served := 0
	for ctx.Err() == nil {
		s.drainControl(ctx)
		if ctx.Err() != nil {
			break
		}
		rep, err := g.RunEpoch(ctx)
		if err != nil {
			if ctx.Err() != nil {
				break // cancelled mid-epoch: a clean stop, not a serving failure
			}
			serveErr = err
			break
		}
		s.publishEpoch(rep)
		served++
		if s.cfg.Epochs > 0 && served >= s.cfg.Epochs {
			break
		}
		if s.cfg.EpochGap > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(s.cfg.EpochGap):
			}
		}
	}

	s.shutdown(serveErr)
	if s.capture != nil {
		if err := s.capture.Close(); err != nil && serveErr == nil {
			serveErr = err
		}
		s.capture = nil
	}
	return serveErr
}

// acceptLoop admits clients until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		s.wg.Add(1)
		go s.admit(conn)
	}
}

// admit performs the handshake and starts the client's reader and writer.
func (s *Server) admit(conn net.Conn) {
	defer s.wg.Done()
	if s.cfg.tuneConn != nil {
		s.cfg.tuneConn(conn)
	}
	deadline := time.Now().Add(s.cfg.WriteTimeout)
	conn.SetDeadline(deadline)
	if _, err := conn.Write(wire.AppendPrelude(nil)); err != nil {
		conn.Close()
		return
	}
	if err := wire.ReadPrelude(conn); err != nil {
		s.cfg.Logf("server: %s rejected: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	s.mu.Lock()
	hello := s.hello
	closing := s.closing
	s.mu.Unlock()
	payload, err := json.Marshal(hello)
	if err == nil {
		err = writeMsg(conn, msgHello, payload)
	}
	if err != nil || closing {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})

	c := &client{
		conn:    conn,
		name:    conn.RemoteAddr().String(),
		frames:  make(chan []byte, s.cfg.FrameQueue),
		metrics: make(chan []byte, s.cfg.MetricsQueue),
		stop:    make(chan struct{}),
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.clients[c] = struct{}{}
	s.met.clients.Set(float64(len(s.clients)))
	s.mu.Unlock()
	s.cfg.Logf("server: %s connected", c.name)

	s.wg.Add(2)
	go s.readLoop(c)
	go s.writeLoop(c)
}

// drop removes a client and closes its connection. Idempotent.
func (s *Server) drop(c *client) {
	s.mu.Lock()
	_, present := s.clients[c]
	delete(s.clients, c)
	s.met.clients.Set(float64(len(s.clients)))
	s.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	c.conn.Close()
	if present {
		s.cfg.Logf("server: %s disconnected", c.name)
	}
}

// readLoop decodes control messages from one client and queues them for
// the epoch loop. Subscription changes apply immediately.
func (s *Server) readLoop(c *client) {
	defer s.wg.Done()
	defer s.drop(c)
	for {
		typ, payload, err := wire.Read(c.conn)
		if err != nil {
			return
		}
		switch typ {
		case msgSubscribe:
			d := chunk.NewCursor(payload)
			mask := d.U8()
			if d.Done() != nil {
				s.reject(c, fmt.Errorf("%w: malformed subscribe", ErrCorrupt))
				continue
			}
			c.subs.Store(uint32(mask))
		case msgPause, msgResume, msgCaptureStop:
			s.enqueue(controlOp{from: c, typ: typ})
		case msgRateOverride:
			tag, k, err := decodeRateOverride(payload)
			if err != nil {
				s.reject(c, err)
				continue
			}
			s.enqueue(controlOp{from: c, typ: typ, tag: tag, k: k})
		case msgChannelPlan:
			moves, err := decodeChannelPlan(payload)
			if err != nil {
				s.reject(c, err)
				continue
			}
			s.enqueue(controlOp{from: c, typ: typ, moves: moves})
		case msgCaptureStart:
			path, err := decodeString(payload)
			if err != nil {
				s.reject(c, err)
				continue
			}
			s.enqueue(controlOp{from: c, typ: typ, path: path})
		default:
			s.reject(c, fmt.Errorf("%w: 0x%02x", ErrUnknownType, typ))
		}
	}
}

// enqueue hands a control op to the epoch loop. The control queue is
// bounded but deep; a client that floods it faster than epochs drain it
// has its op dropped with an error message rather than blocking the reader
// forever.
func (s *Server) enqueue(op controlOp) {
	select {
	case s.control <- op:
	default:
		s.reject(op.from, fmt.Errorf("server: control queue full, request dropped"))
	}
}

// reject sends an asynchronous error message back to the offending client
// (through its bounded metrics queue, so even rejections cannot block).
func (s *Server) reject(c *client, err error) {
	s.cfg.Logf("server: %s request rejected: %v", c.name, err)
	payload, merr := json.Marshal(map[string]string{"error": err.Error()})
	if merr != nil {
		return
	}
	s.send(c, c.metrics, chunk.Append(nil, msgError, payload), &c.metricsSent, &c.metricsDropped)
}

// send enqueues one framed message without blocking: a full queue counts a
// drop instead. This is the whole backpressure policy.
func (s *Server) send(c *client, queue chan []byte, msg []byte, sent, dropped *atomic.Uint64) {
	select {
	case queue <- msg:
		sent.Add(1)
		backlog := uint64(len(c.frames) + len(c.metrics))
		c.noteBacklog(backlog)
		s.met.queueHWM.SetMax(float64(backlog))
	default:
		dropped.Add(1)
		s.fanoutDrops.Add(1)
		s.met.drops.Inc()
	}
}

// evict counts and executes a write-failure disconnect: the client could
// not accept a message within the write deadline.
func (s *Server) evict(c *client) {
	s.met.evictions.Inc()
	s.drop(c)
}

// writeLoop drains one client's queues to its socket. Metrics messages are
// preferred over frames when both are pending, so epoch reports survive a
// frame flood. On stop it drains what is queued, sends bye, and closes.
func (s *Server) writeLoop(c *client) {
	defer s.wg.Done()
	write := func(msg []byte) bool {
		c.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		n, err := c.conn.Write(msg)
		if n > 0 {
			c.bytesWritten.Add(uint64(n))
			s.met.bytes.Add(uint64(n))
		}
		return err == nil
	}
	for {
		// Prefer metrics, then frames, then wait for either or stop.
		select {
		case msg := <-c.metrics:
			if !write(msg) {
				s.evict(c)
				return
			}
			continue
		default:
		}
		select {
		case msg := <-c.metrics:
			if !write(msg) {
				s.evict(c)
				return
			}
		case msg := <-c.frames:
			if !write(msg) {
				s.evict(c)
				return
			}
		case <-c.stop:
			for drained := false; !drained; {
				select {
				case msg := <-c.metrics:
					if !write(msg) {
						// A drain failure must still drop the client:
						// readLoop is blocked in wire.Read until the conn
						// closes, and shutdown's wg.Wait needs it back.
						s.evict(c)
						return
					}
				case msg := <-c.frames:
					if !write(msg) {
						s.evict(c)
						return
					}
				default:
					drained = true
				}
			}
			s.mu.Lock()
			farewell := s.farewell
			s.mu.Unlock()
			if farewell == nil {
				farewell = chunk.Append(nil, msgBye, nil)
			}
			write(farewell)
			c.conn.Close()
			return
		}
	}
}

// onFrame is the gateway frame hook: it runs on the epoch-loop goroutine,
// in schedule order, and must never block — capture appends locally,
// fanout drops on full queues.
func (s *Server) onFrame(ev gateway.FrameEvent) {
	if s.capture != nil {
		s.capture.Write(ev)
	}
	var msg []byte
	reached, dropped := 0, 0
	s.mu.Lock()
	for c := range s.clients {
		if c.subs.Load()&subFrames == 0 {
			continue
		}
		if msg == nil {
			msg = chunk.Append(nil, msgFrame, encodeFrameEvent(make([]byte, 0, frameEventBytes), ev))
		}
		before := c.framesDropped.Load()
		s.send(c, c.frames, msg, &c.framesSent, &c.framesDropped)
		if c.framesDropped.Load() > before {
			dropped++
		} else {
			reached++
		}
	}
	s.mu.Unlock()
	if rec := s.cfg.Flight; rec != nil {
		// Same goroutine as the gateway's fold, so the control-plane
		// shard 0 stays single-writer.
		dec := flight.FrameSent
		if dropped > 0 {
			dec = flight.FrameDropped
		}
		rec.Append(0, flight.Span{
			Trace: flight.TraceID(ev.Epoch, ev.Channel, ev.Tag, ev.Seq),
			Seq:   uint32(ev.Seq), Epoch: uint32(ev.Epoch),
			Tag: uint16(ev.Tag), Channel: uint16(ev.Channel),
			Stage: flight.StageFanout, Decision: dec,
			A: float64(reached), B: float64(dropped),
		})
	}
}

// onDump is the flight recorder's trigger hook: it streams one black-box
// dump to every flight subscriber. It runs synchronously on the
// epoch-loop goroutine (inside the gateway's fold/control), so it never
// blocks — the bounded metrics queue's drop policy applies. The dump is
// encoded once and the bytes shared across clients, like every fanout.
func (s *Server) onDump(d flight.Dump) {
	var msg []byte
	s.mu.Lock()
	for c := range s.clients {
		if c.subs.Load()&subFlight == 0 {
			continue
		}
		if msg == nil {
			msg = chunk.Append(nil, msgFlight, flight.EncodeDump(nil, d))
		}
		s.send(c, c.metrics, msg, &c.metricsSent, &c.metricsDropped)
	}
	s.mu.Unlock()
}

// publishEpoch fans out the per-epoch metrics: the epoch report, a full
// snapshot, (with observability enabled) the obs registry dump, and
// (with a health store attached) the sealed health delta — to every
// matching subscriber, then each client's own delivery stats. The
// marshaled snapshot is also cached for out-of-band readers
// (SnapshotJSON).
func (s *Server) publishEpoch(rep gateway.EpochReport) {
	snap := s.cfg.Gateway.Snapshot()
	var healthMsg []byte
	if s.cfg.Health != nil {
		// Sample the fanout-drop total first: the gateway already sealed
		// this epoch, so the point lands in the next delta (documented
		// one-epoch lag for server-plane series), then marshal the delta
		// the seal built — these bytes are the 0x19 payload.
		s.healthDrops.Append(rep.Epoch, float64(s.fanoutDrops.Load()))
		healthMsg = chunk.Append(nil, msgHealth, s.cfg.Health.DeltaJSON())
	}
	repJSON, err := json.Marshal(rep)
	if err != nil {
		s.cfg.Logf("server: epoch report marshal: %v", err)
		return
	}
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		s.cfg.Logf("server: snapshot marshal: %v", err)
		return
	}
	s.snapJSON.Store(snapJSON)
	repMsg := chunk.Append(nil, msgEpoch, repJSON)
	snapMsg := chunk.Append(nil, msgSnapshot, snapJSON)
	var obsMsg []byte
	if s.cfg.Metrics != nil {
		if dump, err := json.Marshal(s.cfg.Metrics.Snapshot()); err == nil {
			obsMsg = chunk.Append(nil, msgObs, dump)
		} else {
			s.cfg.Logf("server: obs dump marshal: %v", err)
		}
	}

	s.mu.Lock()
	s.hello = Hello{
		Protocol:   Version,
		Epochs:     snap.Epochs,
		TagsActive: snap.TagsActive,
		Channels:   len(snap.Channels),
	}
	for c := range s.clients {
		subs := c.subs.Load()
		if healthMsg != nil && subs&subHealth != 0 {
			s.send(c, c.metrics, healthMsg, &c.metricsSent, &c.metricsDropped)
		}
		if subs&subMetrics == 0 {
			continue
		}
		s.send(c, c.metrics, repMsg, &c.metricsSent, &c.metricsDropped)
		s.send(c, c.metrics, snapMsg, &c.metricsSent, &c.metricsDropped)
		if obsMsg != nil {
			s.send(c, c.metrics, obsMsg, &c.metricsSent, &c.metricsDropped)
		}
		stats := ClientStats{
			Epoch:          rep.Epoch,
			FramesSent:     c.framesSent.Load(),
			FramesDropped:  c.framesDropped.Load(),
			MetricsSent:    c.metricsSent.Load(),
			MetricsDropped: c.metricsDropped.Load(),
			QueueHWM:       c.queueHWM.Load(),
			BytesWritten:   c.bytesWritten.Load(),
		}
		if payload, err := json.Marshal(stats); err == nil {
			s.send(c, c.metrics, chunk.Append(nil, msgClientStats, payload), &c.metricsSent, &c.metricsDropped)
		}
	}
	s.mu.Unlock()
}

// drainControl applies queued control requests at the epoch boundary.
// While paused it blocks here — the gateway is untouched — until a resume
// arrives or the context ends.
func (s *Server) drainControl(ctx context.Context) {
	for {
		select {
		case op := <-s.control:
			s.apply(op)
		default:
			if !s.paused {
				return
			}
			select {
			case op := <-s.control:
				s.apply(op)
			case <-ctx.Done():
				return
			}
		}
	}
}

// apply executes one control request against the gateway (epoch-loop
// goroutine, between epochs — the only place gateway mutation is legal
// while serving).
func (s *Server) apply(op controlOp) {
	var err error
	switch op.typ {
	case msgPause:
		s.paused = true
		s.cfg.Logf("server: paused by %s", op.from.name)
	case msgResume:
		s.paused = false
		s.cfg.Logf("server: resumed by %s", op.from.name)
	case msgRateOverride:
		err = s.cfg.Gateway.OverrideRate(op.tag, op.k)
	case msgChannelPlan:
		if len(op.moves) == 0 {
			var moved int
			moved, err = s.cfg.Gateway.Rebalance()
			if err == nil {
				s.cfg.Logf("server: rebalanced %d tags for %s", moved, op.from.name)
			}
		} else {
			for _, m := range op.moves {
				if err = s.cfg.Gateway.MoveTag(m.Tag, m.Channel); err != nil {
					break
				}
			}
		}
	case msgCaptureStart:
		if s.capture != nil {
			err = fmt.Errorf("server: capture already running (%s)", s.capture.path)
			break
		}
		var path string
		if path, err = s.capturePath(op.path); err != nil {
			break
		}
		var cw *captureWriter
		if cw, err = newCaptureWriter(path); err == nil {
			s.capture = cw
			s.cfg.Logf("server: capturing frame events to %s", path)
		}
	case msgCaptureStop:
		if s.capture == nil {
			err = fmt.Errorf("server: no capture running")
			break
		}
		err = s.capture.Close()
		s.capture = nil
	}
	if err != nil {
		s.reject(op.from, err)
	}
}

// capturePath resolves a client-requested capture path against the
// configured capture directory. Capture is an operator opt-in: with no
// CaptureDir the control is rejected outright, and a granted path can
// never escape the directory (no absolute paths, no "..").
func (s *Server) capturePath(req string) (string, error) {
	if s.cfg.CaptureDir == "" {
		return "", fmt.Errorf("server: capture disabled (no CaptureDir configured)")
	}
	if !filepath.IsLocal(req) {
		return "", fmt.Errorf("server: capture path %q escapes the capture directory", req)
	}
	return filepath.Join(s.cfg.CaptureDir, req), nil
}

// shutdown stops accepting, tells every client's writer to drain and say
// farewell — bye on a clean stop, an error message when Serve is returning
// serveErr — and waits for all goroutines.
func (s *Server) shutdown(serveErr error) {
	s.ln.Close()
	s.mu.Lock()
	s.closing = true
	if serveErr != nil {
		if payload, err := json.Marshal(map[string]string{"error": serveErr.Error()}); err == nil {
			s.farewell = chunk.Append(nil, msgError, payload)
		}
	}
	clients := make([]*client, 0, len(s.clients))
	for c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	for _, c := range clients {
		c.stopOnce.Do(func() { close(c.stop) })
	}
	s.wg.Wait()
	s.mu.Lock()
	for c := range s.clients {
		delete(s.clients, c)
	}
	s.mu.Unlock()
}
