// Package chunk is the one framing codec behind every binary format in
// this module: trace files (internal/trace), the gateway wire protocol
// and its capture files (internal/server), and flight-recorder dumps
// (internal/flight). This comment is the framing specification; each of
// those packages documents only its own chunk types and payloads.
//
// # Framing
//
// A stream is a 12-byte prelude followed by CRC-framed chunks:
//
//	stream  := magic(8) version(u32) chunk*
//	chunk   := type(u8) length(u32) payload(length bytes) crc32(u32)
//
// All integers are little-endian. The CRC-32 (IEEE) covers the type
// byte, the length field and the payload, so every byte after the
// version field is integrity-checked. Each format fixes its magic, its
// version and the largest payload its readers accept in one Format value:
//
//	format  magic          owner
//	trace   "SAIYTRC\x00"  internal/trace   (traceFormat)
//	wire    "SAIYWIR\x00"  internal/server  (wire; capture files too)
//	dump    "SAIYFLT\x00"  internal/flight  (dumpFormat)
//
// # Errors
//
// Readers report a stream that ends cleanly between chunks as io.EOF and
// a stream that ends inside the prelude or a chunk as ErrTruncated. A
// bad magic, a length above the format's limit, a CRC mismatch, or a
// payload field that overruns its chunk is ErrCorrupt; a version other
// than the format's is ErrVersion. Any other error from the underlying
// reader (a deadline, a closed connection, a disk fault) is returned
// unchanged. The format packages alias these sentinels, so errors.Is
// works with either name.
//
// # Payloads
//
// Chunk types and payload encodings belong to each format. Binary
// payloads are decoded with a Cursor, whose first overrun latches
// ErrCorrupt.
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Sentinel errors shared by every format; test with errors.Is.
var (
	// ErrCorrupt marks structural damage: bad magic, a CRC mismatch, an
	// impossible length, or a malformed payload.
	ErrCorrupt = errors.New("corrupt")
	// ErrTruncated marks a stream that ended inside the prelude or a chunk.
	ErrTruncated = errors.New("truncated")
	// ErrVersion marks a format version this build does not understand.
	ErrVersion = errors.New("unsupported version")
)

// PreludeBytes is the size of the magic and version that open a stream.
const PreludeBytes = 12

const (
	headBytes = 5 // type(u8) length(u32)
	crcBytes  = 4
	// smallChunk is the buffer Read allocates before it knows the
	// length: a chunk of up to this many bytes, framing included, costs
	// exactly one allocation.
	smallChunk = 64
	// growStep caps the buffer Read allocates up front for a longer
	// chunk. Past it the buffer doubles as bytes arrive, so a length
	// field that promises more than the peer sends costs memory in
	// proportion to what was sent, not to what was promised.
	growStep = 64 << 10
)

// Format is the fixed identity of one framed format.
type Format struct {
	Name       string // prefix of error messages ("trace", "server", ...)
	Magic      string // 8 bytes
	Version    uint32
	MaxPayload uint32 // largest payload a reader accepts
}

// AppendPrelude appends the format's magic and version to dst.
func (f Format) AppendPrelude(dst []byte) []byte {
	dst = append(dst, f.Magic...)
	return binary.LittleEndian.AppendUint32(dst, f.Version)
}

// CheckPrelude validates the prelude at the head of buf.
func (f Format) CheckPrelude(buf []byte) error {
	if len(buf) < PreludeBytes {
		return fmt.Errorf("%s: %w: %d-byte prelude", f.Name, ErrTruncated, len(buf))
	}
	if string(buf[:8]) != f.Magic {
		return fmt.Errorf("%s: %w: bad magic %q", f.Name, ErrCorrupt, buf[:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != f.Version {
		return fmt.Errorf("%s: %w: version %d, this build speaks %d", f.Name, ErrVersion, v, f.Version)
	}
	return nil
}

// ReadPrelude reads and validates the prelude from r.
func (f Format) ReadPrelude(r io.Reader) error {
	var buf [PreludeBytes]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return f.short(err, "the prelude")
	}
	return f.CheckPrelude(buf[:])
}

// Append appends one framed chunk to dst.
func Append(dst []byte, typ byte, payload []byte) []byte {
	at := len(dst)
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[at:]))
}

// Cut splits off the chunk at the head of buf and verifies its CRC. The
// payload aliases buf; rest is what follows the chunk. An empty buf is
// io.EOF.
func (f Format) Cut(buf []byte) (typ byte, payload, rest []byte, err error) {
	if len(buf) == 0 {
		return 0, nil, nil, io.EOF
	}
	if len(buf) < headBytes {
		return 0, nil, nil, f.short(io.ErrUnexpectedEOF, "a chunk header")
	}
	n, err := f.length(buf)
	if err != nil {
		return 0, nil, nil, err
	}
	end := headBytes + n
	if len(buf) < end+crcBytes {
		return 0, nil, nil, f.short(io.ErrUnexpectedEOF, "a chunk body")
	}
	if got, want := crc32.ChecksumIEEE(buf[:end]), binary.LittleEndian.Uint32(buf[end:]); got != want {
		return 0, nil, nil, fmt.Errorf("%s: %w: chunk CRC %08x, computed %08x", f.Name, ErrCorrupt, want, got)
	}
	return buf[0], buf[headBytes:end], buf[end+crcBytes:], nil
}

// Read reads one chunk from r and verifies its CRC. It returns io.EOF
// only when r ends exactly at a chunk boundary.
func (f Format) Read(r io.Reader) (typ byte, payload []byte, err error) {
	buf := make([]byte, headBytes, smallChunk)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, f.short(err, "a chunk header")
	}
	n, err := f.length(buf)
	if err != nil {
		return 0, nil, err
	}
	total := headBytes + n + crcBytes
	if total > cap(buf) {
		buf = append(make([]byte, 0, min(total, growStep)), buf...)
	}
	for len(buf) < total {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(len(buf), total-len(buf)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), total)])
		buf = buf[:len(buf)+got]
		if err != nil {
			return 0, nil, f.short(err, "a chunk body")
		}
	}
	typ, payload, _, err = f.Cut(buf)
	return typ, payload, err
}

// length decodes and bounds the length field of the chunk header at the
// head of buf.
func (f Format) length(buf []byte) (int, error) {
	n := binary.LittleEndian.Uint32(buf[1:])
	if n > f.MaxPayload {
		return 0, fmt.Errorf("%s: %w: chunk of %d bytes exceeds the %d byte limit", f.Name, ErrCorrupt, n, f.MaxPayload)
	}
	return int(n), nil
}

// short classifies a failed read: running out of bytes is ErrTruncated,
// anything else is the underlying reader's own error, unchanged.
func (f Format) short(err error, where string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%s: %w: stream ended inside %s", f.Name, ErrTruncated, where)
	}
	return err
}

// Cursor is a bounds-checked reader over one chunk payload. The first
// read past the end latches ErrCorrupt; later reads return zero values,
// so a decoder reads every field and checks Done once.
type Cursor struct {
	buf []byte
	at  int
	err error
}

// NewCursor returns a Cursor at the start of payload.
func NewCursor(payload []byte) *Cursor { return &Cursor{buf: payload} }

// Bytes returns the next n bytes (aliasing the payload), or nil once the
// cursor has failed.
func (c *Cursor) Bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.buf)-c.at {
		c.err = fmt.Errorf("%w: field overruns payload (%d+%d > %d)", ErrCorrupt, c.at, n, len(c.buf))
		return nil
	}
	b := c.buf[c.at : c.at+n]
	c.at += n
	return b
}

// zeros backs the fixed-width reads of a failed cursor.
var zeros [8]byte

// fixed returns the next n <= 8 bytes, or n zero bytes once the cursor
// has failed.
func (c *Cursor) fixed(n int) []byte {
	if b := c.Bytes(n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8 reads one byte.
func (c *Cursor) U8() byte { return c.fixed(1)[0] }

// U16 reads a little-endian uint16.
func (c *Cursor) U16() uint16 { return binary.LittleEndian.Uint16(c.fixed(2)) }

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 { return binary.LittleEndian.Uint32(c.fixed(4)) }

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 { return binary.LittleEndian.Uint64(c.fixed(8)) }

// Count reads a u32 element count and checks that many elements of
// elemBytes each fit in the rest of the payload. The check is done in
// 64 bits before any int conversion or multiplication, so a hostile
// count (2^31 on a 32-bit platform, say) is ErrCorrupt, never an
// overflowed bounds check or an allocation bomb.
func (c *Cursor) Count(elemBytes int) int {
	n := c.U32()
	if c.err != nil {
		return 0
	}
	if left := len(c.buf) - c.at; uint64(n)*uint64(elemBytes) > uint64(left) {
		c.err = fmt.Errorf("%w: %d elements of %d bytes overrun payload (%d bytes left)", ErrCorrupt, n, elemBytes, left)
		return 0
	}
	return int(n)
}

// Done reports the latched error, or ErrCorrupt if payload bytes remain
// unread.
func (c *Cursor) Done() error {
	if c.err == nil && c.at != len(c.buf) {
		c.err = fmt.Errorf("%w: %d stray bytes after payload", ErrCorrupt, len(c.buf)-c.at)
	}
	return c.err
}
