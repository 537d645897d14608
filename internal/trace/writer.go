package trace

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"saiyan/internal/chunk"
)

// Writer streams a trace: header first, then records in the order
// WriteRecord is called, then a trailer on Close. A Writer is not safe for
// concurrent use; the pipeline's record tee serializes writes through a
// single recorder goroutine.
type Writer struct {
	w      io.Writer
	gz     *gzip.Writer
	file   io.Closer // underlying file when opened via Create
	buf    []byte    // chunk scratch
	frames uint64
	closed bool
	err    error // first write error; sticky
}

// NewWriter writes a trace to w, emitting the magic, version, and header
// chunk immediately. The caller keeps ownership of w; Close finishes the
// trace but does not close w.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	tw := &Writer{w: w}
	if err := tw.begin(hdr); err != nil {
		return nil, err
	}
	return tw, nil
}

// Create writes a trace to a new file at path, gzip-compressed when the
// path ends in ".gz". Close flushes the compressor and closes the file.
func Create(path string, hdr Header) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	tw, err := NewWriter(w, hdr)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	tw.gz, tw.file = gz, f
	return tw, nil
}

// begin emits the stream prelude and header chunk.
func (w *Writer) begin(hdr Header) error {
	w.buf = traceFormat.AppendPrelude(w.buf[:0])
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	payload, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("trace: encoding header: %w", err)
	}
	return w.writeChunk(chunkHeader, payload)
}

// writeChunk frames one chunk with its CRC.
func (w *Writer) writeChunk(typ byte, payload []byte) error {
	if len(payload) > int(traceFormat.MaxPayload) {
		return fmt.Errorf("trace: chunk of %d bytes exceeds the %d byte limit", len(payload), traceFormat.MaxPayload)
	}
	w.buf = chunk.Append(w.buf[:0], typ, payload)
	_, err := w.w.Write(w.buf)
	return err
}

// WriteRecord appends one frame record. Errors are sticky: after the first
// failure every subsequent call returns the same error.
func (w *Writer) WriteRecord(r *Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = errors.New("trace: WriteRecord after Close")
		return w.err
	}
	payload := encodeRecord(nil, r)
	if err := w.writeChunk(chunkFrame, payload); err != nil {
		w.err = err
		return err
	}
	w.frames++
	return nil
}

// Abort closes the writer WITHOUT writing the trailer chunk, deliberately
// leaving the trace truncated: readers deliver the records already written
// and then report ErrTruncated, so a failed capture can never pass for a
// complete one. Abort is idempotent with Close; whichever runs first wins.
func (w *Writer) Abort() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	var errs []error
	if w.gz != nil {
		errs = append(errs, w.gz.Close())
	}
	if w.file != nil {
		errs = append(errs, w.file.Close())
	}
	return errors.Join(errs...)
}

// Close writes the trailer chunk, flushes the gzip layer, and closes the
// underlying file when the Writer owns it. Close is idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil {
		var count [8]byte
		binary.LittleEndian.PutUint64(count[:], w.frames)
		w.err = w.writeChunk(chunkTrailer, count[:])
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	if w.file != nil {
		if err := w.file.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}
