package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"saiyan/internal/flight"
	"saiyan/internal/gateway"
	"saiyan/internal/health"
	"saiyan/internal/obs"
)

// EventKind discriminates the messages a subscriber receives.
type EventKind int

const (
	// EventFrame is one per-frame decode outcome (Event.Frame).
	EventFrame EventKind = iota + 1
	// EventEpoch is a per-epoch report (Event.Epoch).
	EventEpoch
	// EventSnapshot is the full metrics snapshot after an epoch
	// (Event.Snapshot).
	EventSnapshot
	// EventStats is this client's own delivery/drop accounting
	// (Event.Stats).
	EventStats
	// EventError is an asynchronous rejection of a control request
	// (Event.Err).
	EventError
	// EventBye announces a clean server shutdown; the stream ends after
	// it.
	EventBye
	// EventObs is the server's per-epoch observability registry dump
	// (Event.Obs); only servers running with metrics enabled send it.
	EventObs
	// EventFlight is one anomaly-triggered flight-recorder black-box
	// dump (Event.Flight); only servers running with a flight recorder
	// attached send it.
	EventFlight
	// EventHealth is the link-health plane's per-epoch delta — raw
	// series points plus SLO alert transitions (Event.Health); only
	// servers running with a health store attached send it.
	EventHealth
)

// String names the kind for logs and transcripts.
func (k EventKind) String() string {
	switch k {
	case EventFrame:
		return "frame"
	case EventEpoch:
		return "epoch"
	case EventSnapshot:
		return "snapshot"
	case EventStats:
		return "stats"
	case EventError:
		return "error"
	case EventBye:
		return "bye"
	case EventObs:
		return "obs"
	case EventFlight:
		return "flight"
	case EventHealth:
		return "health"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one received server message; Kind selects which field is set.
type Event struct {
	Kind     EventKind
	Frame    gateway.FrameEvent
	Epoch    gateway.EpochReport
	Snapshot *gateway.Snapshot
	Stats    ClientStats
	Err      string
	Obs      []obs.MetricSnapshot
	Flight   flight.Dump
	Health   health.Delta
}

// Client is a protocol client: a subscriber and control handle for one
// server connection. Next (the stream reader) may run concurrently with
// the control methods; the control methods themselves are also safe for
// concurrent use.
type Client struct {
	conn  net.Conn
	r     *bufio.Reader
	hello Hello

	wmu sync.Mutex // serializes writes (control messages)
}

// clientIOTimeout bounds the client's blocking I/O: dialing, the
// handshake, and each control write.
const clientIOTimeout = 10 * time.Second

// Dial connects to a server, exchanges preludes, and reads the hello.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, clientIOTimeout)
	if err != nil {
		return nil, err
	}
	return handshake(conn)
}

// handshake runs the client side of the prelude/hello exchange over an
// established connection.
func handshake(conn net.Conn) (*Client, error) {
	c := &Client{conn: conn, r: bufio.NewReader(conn)}
	conn.SetDeadline(time.Now().Add(clientIOTimeout))
	if _, err := conn.Write(wire.AppendPrelude(nil)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := wire.ReadPrelude(c.r); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, err := wire.Read(c.r)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if typ != msgHello {
		conn.Close()
		return nil, fmt.Errorf("%w: expected hello, got 0x%02x", ErrCorrupt, typ)
	}
	if err := json.Unmarshal(payload, &c.hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: malformed hello: %v", ErrCorrupt, err)
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}

// Hello returns the server's greeting: protocol version and service state
// at connect time.
func (c *Client) Hello() Hello { return c.hello }

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) write(typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// A write deadline keeps the fire-and-forget contract honest: a
	// stalled server fails the control call instead of blocking it
	// forever. Write deadlines do not disturb a concurrent Next.
	c.conn.SetWriteDeadline(time.Now().Add(clientIOTimeout))
	err := writeMsg(c.conn, typ, payload)
	c.conn.SetWriteDeadline(time.Time{})
	return err
}

// Subscribe selects which streams the server sends this client: per-frame
// decode events, per-epoch metrics, flight anomaly dumps, and/or link-health
// deltas. Call it again to change the subscription; all-false mutes the
// client (control still works).
func (c *Client) Subscribe(frames, metrics, flightDumps, healthDeltas bool) error {
	var mask byte
	if frames {
		mask |= subFrames
	}
	if metrics {
		mask |= subMetrics
	}
	if flightDumps {
		mask |= subFlight
	}
	if healthDeltas {
		mask |= subHealth
	}
	return c.write(msgSubscribe, []byte{mask})
}

// Control requests are fire-and-forget: they return once the request is on
// the wire. The server applies them at the next epoch boundary and reports
// a rejection asynchronously as an EventError on the stream.

// Pause idles the server's epoch loop until Resume.
func (c *Client) Pause() error { return c.write(msgPause, nil) }

// Resume restarts a paused epoch loop.
func (c *Client) Resume() error { return c.write(msgResume, nil) }

// OverrideRate forces a tag's downlink rate to k; tag < 0 applies to every
// deployed tag.
func (c *Client) OverrideRate(tag, k int) error {
	return c.write(msgRateOverride, encodeRateOverride(tag, k))
}

// SwapChannelPlan reassigns tags to ingest channels. An empty plan asks
// the server to rebalance every tag round-robin.
func (c *Client) SwapChannelPlan(moves []TagMove) error {
	payload, err := encodeChannelPlan(moves)
	if err != nil {
		return err
	}
	return c.write(msgChannelPlan, payload)
}

// Rebalance is SwapChannelPlan with an empty plan.
func (c *Client) Rebalance() error { return c.SwapChannelPlan(nil) }

// StartCapture asks the server to record its frame-event stream to path,
// resolved inside the server's configured capture directory
// (Config.CaptureDir); a server without one, or a path that would escape
// it, rejects the request. Read the file back with ReadCapture.
func (c *Client) StartCapture(path string) error {
	payload, err := encodeString(path)
	if err != nil {
		return err
	}
	return c.write(msgCaptureStart, payload)
}

// StopCapture finishes a running server-side capture.
func (c *Client) StopCapture() error { return c.write(msgCaptureStop, nil) }

// Next blocks for the next server message and decodes it. The stream ends
// with an EventBye on clean shutdown, or an error (io.EOF when the server
// vanished without a bye, ErrTruncated/ErrCorrupt on a damaged stream). A
// server stopping on a gateway failure sends the failure as a final
// EventError instead of a bye, then closes.
func (c *Client) Next() (Event, error) {
	for {
		typ, payload, err := wire.Read(c.r)
		if err != nil {
			return Event{}, err
		}
		switch typ {
		case msgFrame:
			ev, err := decodeFrameEvent(payload)
			if err != nil {
				return Event{}, err
			}
			return Event{Kind: EventFrame, Frame: ev}, nil
		case msgEpoch:
			var rep gateway.EpochReport
			if err := json.Unmarshal(payload, &rep); err != nil {
				return Event{}, fmt.Errorf("%w: malformed epoch report: %v", ErrCorrupt, err)
			}
			return Event{Kind: EventEpoch, Epoch: rep}, nil
		case msgSnapshot:
			snap := new(gateway.Snapshot)
			if err := json.Unmarshal(payload, snap); err != nil {
				return Event{}, fmt.Errorf("%w: malformed snapshot: %v", ErrCorrupt, err)
			}
			return Event{Kind: EventSnapshot, Snapshot: snap}, nil
		case msgObs:
			var dump []obs.MetricSnapshot
			if err := json.Unmarshal(payload, &dump); err != nil {
				return Event{}, fmt.Errorf("%w: malformed obs dump: %v", ErrCorrupt, err)
			}
			return Event{Kind: EventObs, Obs: dump}, nil
		case msgFlight:
			d, err := flight.DecodeDump(payload)
			if err != nil {
				return Event{}, fmt.Errorf("%w: malformed flight dump: %v", ErrCorrupt, err)
			}
			return Event{Kind: EventFlight, Flight: d}, nil
		case msgHealth:
			var d health.Delta
			if err := json.Unmarshal(payload, &d); err != nil {
				return Event{}, fmt.Errorf("%w: malformed health delta: %v", ErrCorrupt, err)
			}
			return Event{Kind: EventHealth, Health: d}, nil
		case msgClientStats:
			var st ClientStats
			if err := json.Unmarshal(payload, &st); err != nil {
				return Event{}, fmt.Errorf("%w: malformed client stats: %v", ErrCorrupt, err)
			}
			return Event{Kind: EventStats, Stats: st}, nil
		case msgError:
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(payload, &body); err != nil {
				return Event{}, fmt.Errorf("%w: malformed error message: %v", ErrCorrupt, err)
			}
			return Event{Kind: EventError, Err: body.Error}, nil
		case msgHello:
			// A duplicate hello is harmless; refresh and keep reading.
			if err := json.Unmarshal(payload, &c.hello); err != nil {
				return Event{}, fmt.Errorf("%w: malformed hello: %v", ErrCorrupt, err)
			}
		case msgBye:
			return Event{Kind: EventBye}, nil
		default:
			return Event{}, fmt.Errorf("%w: 0x%02x", ErrUnknownType, typ)
		}
	}
}
