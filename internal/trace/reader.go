package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Reader streams records out of a trace. It transparently decompresses
// gzip input (sniffed from the stream's first bytes), verifies every
// chunk's CRC, skips unknown chunk types, and distinguishes a clean end
// (trailer chunk then io.EOF) from a truncated file (ErrTruncated).
type Reader struct {
	br     *bufio.Reader
	gz     *gzip.Reader
	file   io.Closer // underlying file when opened via Open
	hdr    Header
	frames uint64 // frame records delivered
	done   bool   // trailer seen
	err    error  // sticky terminal state (io.EOF, ErrTruncated, ...)
}

// NewReader opens a trace stream, reading the prelude and header chunk
// before returning. The caller keeps ownership of r.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{br: bufio.NewReader(r)}
	if err := tr.begin(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Open opens a trace file; gzip compression is detected from the content,
// not the file name. Close releases the file.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	tr.file = f
	return tr, nil
}

// begin sniffs gzip, validates magic and version, and parses the header.
func (r *Reader) begin() error {
	if sig, err := r.br.Peek(2); err == nil && sig[0] == 0x1f && sig[1] == 0x8b {
		gz, err := gzip.NewReader(r.br)
		if err != nil {
			return fmt.Errorf("%w: gzip layer: %v", ErrCorrupt, err)
		}
		r.gz = gz
		r.br = bufio.NewReader(gz)
	}
	if err := traceFormat.ReadPrelude(r.br); err != nil {
		return readErr(err)
	}
	typ, payload, err := r.readChunk()
	if err == io.EOF {
		return fmt.Errorf("%w: stream ended before the header chunk", ErrTruncated)
	}
	if err != nil {
		return err
	}
	if typ != chunkHeader {
		return fmt.Errorf("%w: first chunk type %d, want header", ErrCorrupt, typ)
	}
	if err := json.Unmarshal(payload, &r.hdr); err != nil {
		return fmt.Errorf("%w: decoding header: %v", ErrCorrupt, err)
	}
	return nil
}

// Header returns the trace metadata.
func (r *Reader) Header() Header { return r.hdr }

// readChunk reads and CRC-verifies one chunk. io.EOF at a chunk boundary
// is returned as-is.
func (r *Reader) readChunk() (byte, []byte, error) {
	typ, payload, err := traceFormat.Read(r.br)
	return typ, payload, readErr(err)
}

// readErr keeps the reader's error contract: a failure below the chunk
// layer (the file or the gzip layer) reads as a truncated trace.
func readErr(err error) error {
	if err == nil || err == io.EOF || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrVersion) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrTruncated, err)
}

// Next returns the next frame record. It returns io.EOF after a complete
// trace has been drained, ErrTruncated when the stream ends before its
// trailer, and ErrCorrupt on CRC or structural damage. The terminal state
// is sticky.
func (r *Reader) Next() (*Record, error) {
	if r.err != nil {
		return nil, r.err
	}
	for {
		typ, payload, err := r.readChunk()
		if err == io.EOF {
			// Ran off the end without a trailer: the file was cut at a
			// chunk boundary.
			r.err = fmt.Errorf("%w: stream ended after %d records without a trailer", ErrTruncated, r.frames)
			return nil, r.err
		}
		if err != nil {
			r.err = err
			return nil, r.err
		}
		switch typ {
		case chunkFrame:
			rec, err := decodeRecord(payload)
			if err != nil {
				r.err = err
				return nil, r.err
			}
			r.frames++
			return rec, nil
		case chunkTrailer:
			if len(payload) != 8 {
				r.err = fmt.Errorf("%w: trailer payload %d bytes, want 8", ErrCorrupt, len(payload))
				return nil, r.err
			}
			if declared := binary.LittleEndian.Uint64(payload); declared != r.frames {
				r.err = fmt.Errorf("%w: trailer declares %d records, read %d", ErrCorrupt, declared, r.frames)
				return nil, r.err
			}
			// The trailer must be the last chunk: trailing bytes mean a
			// mangled file (e.g. two traces concatenated), not a clean end.
			// The peek also forces the gzip layer to validate its own
			// checksum trailer.
			if _, err := r.br.Peek(1); err == nil {
				r.err = fmt.Errorf("%w: data after the trailer chunk", ErrCorrupt)
				return nil, r.err
			} else if err != io.EOF {
				r.err = fmt.Errorf("%w: reading past the trailer: %v", ErrCorrupt, err)
				return nil, r.err
			}
			r.done = true
			r.err = io.EOF
			return nil, io.EOF
		case chunkHeader:
			r.err = fmt.Errorf("%w: duplicate header chunk", ErrCorrupt)
			return nil, r.err
		default:
			// Unknown chunk type with a valid CRC: a forward-compatible
			// addition. Skip it.
		}
	}
}

// Close releases the gzip layer and the underlying file when the Reader
// owns it.
func (r *Reader) Close() error {
	var errs []error
	if r.gz != nil {
		errs = append(errs, r.gz.Close())
		r.gz = nil
	}
	if r.file != nil {
		errs = append(errs, r.file.Close())
		r.file = nil
	}
	return errors.Join(errs...)
}
