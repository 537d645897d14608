package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"saiyan/internal/gateway"
)

// A capture file is the server-side recording of the frame-event stream:
// the same prelude and message framing as the wire, holding only frame
// messages. It has no trailer — a capture is typically stopped by an
// operator mid-run — so a clean EOF between messages is a complete file,
// while an EOF inside a message reports ErrTruncated.

// captureWriter appends frame events to a capture file. It runs on the
// epoch-loop goroutine only.
type captureWriter struct {
	path string
	f    *os.File
	w    *bufio.Writer
	err  error
}

func newCaptureWriter(path string) (*captureWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(wire.AppendPrelude(nil)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &captureWriter{path: path, f: f, w: w}, nil
}

// Write appends one frame event. Errors latch: the first failure sticks
// and is reported by Close.
func (c *captureWriter) Write(ev gateway.FrameEvent) {
	if c.err != nil {
		return
	}
	c.err = writeMsg(c.w, msgFrame, encodeFrameEvent(make([]byte, 0, frameEventBytes), ev))
}

func (c *captureWriter) Close() error {
	flushErr := c.w.Flush()
	closeErr := c.f.Close()
	if c.err != nil {
		return fmt.Errorf("server: capture %s: %w", c.path, c.err)
	}
	if flushErr != nil {
		return fmt.Errorf("server: capture %s: %w", c.path, flushErr)
	}
	if closeErr != nil {
		return fmt.Errorf("server: capture %s: %w", c.path, closeErr)
	}
	return nil
}

// ReadCapture loads every frame event of a capture file recorded by the
// server's captureStart control. Events decoded before a truncation are
// returned alongside ErrTruncated, mirroring internal/trace's partial-read
// contract.
func ReadCapture(path string) ([]gateway.FrameEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	if err := wire.ReadPrelude(r); err != nil {
		return nil, fmt.Errorf("server: capture %s: %w", path, err)
	}
	var events []gateway.FrameEvent
	for {
		typ, payload, err := wire.Read(r)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return events, nil
			}
			return events, fmt.Errorf("server: capture %s: %w", path, err)
		}
		if typ != msgFrame {
			// Tolerate future message types the way trace readers skip
			// unknown chunks: the CRC already verified them.
			continue
		}
		ev, err := decodeFrameEvent(payload)
		if err != nil {
			return events, fmt.Errorf("server: capture %s: %w", path, err)
		}
		events = append(events, ev)
	}
}
