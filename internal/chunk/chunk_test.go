package chunk

import (
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"
	"testing/iotest"
)

// testFormat has the wire protocol's 16 MiB payload limit, the largest
// limit a network peer can probe.
var testFormat = Format{Name: "test", Magic: "SAIYTST\x00", Version: 3, MaxPayload: 16 << 20}

// testStream is a prelude and three chunks, one of them empty.
func testStream() []byte {
	buf := testFormat.AppendPrelude(nil)
	buf = Append(buf, 0x01, []byte("header"))
	buf = Append(buf, 0x02, nil)
	return Append(buf, 0x03, bytes.Repeat([]byte{0xa5}, 100))
}

// drain reads a stream to its first error with Read, and separately with
// Cut, and checks that both agree on every chunk and on the error.
func drain(t *testing.T, data []byte) (chunks int, err error) {
	t.Helper()
	r := bytes.NewReader(data)
	readErr := testFormat.ReadPrelude(r)
	cutErr := testFormat.CheckPrelude(data)
	if (readErr == nil) != (cutErr == nil) {
		t.Fatalf("prelude: ReadPrelude %v, CheckPrelude %v", readErr, cutErr)
	}
	if readErr != nil {
		return 0, readErr
	}
	rest := data[PreludeBytes:]
	for {
		typ, payload, err := testFormat.Read(r)
		ctyp, cpayload, next, cerr := testFormat.Cut(rest)
		if (err == nil) != (cerr == nil) || typ != ctyp || !bytes.Equal(payload, cpayload) {
			t.Fatalf("chunk %d: Read (%#x, %d bytes, %v), Cut (%#x, %d bytes, %v)",
				chunks, typ, len(payload), err, ctyp, len(cpayload), cerr)
		}
		if err != nil {
			if !sameSentinel(err, cerr) {
				t.Fatalf("chunk %d: Read error %v, Cut error %v", chunks, err, cerr)
			}
			return chunks, err
		}
		rest = next
		chunks++
	}
}

func sameSentinel(a, b error) bool {
	for _, s := range []error{io.EOF, ErrCorrupt, ErrTruncated, ErrVersion} {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return true
}

// TestRoundTripEndsWithEOF checks that chunks come back in order with
// their types and payloads, and that a stream ending at a chunk boundary
// reports a bare io.EOF.
func TestRoundTripEndsWithEOF(t *testing.T) {
	data := testStream()
	r := bytes.NewReader(data)
	if err := testFormat.ReadPrelude(r); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		typ     byte
		payload []byte
	}{{0x01, []byte("header")}, {0x02, nil}, {0x03, bytes.Repeat([]byte{0xa5}, 100)}}
	for i, w := range want {
		typ, payload, err := testFormat.Read(r)
		if err != nil || typ != w.typ || !bytes.Equal(payload, w.payload) {
			t.Fatalf("chunk %d: typ=%#x payload=%q err=%v", i, typ, payload, err)
		}
	}
	if _, _, err := testFormat.Read(r); err != io.EOF {
		t.Fatalf("after the last chunk: %v, want io.EOF", err)
	}
	if n, err := drain(t, data); n != len(want) || err != io.EOF {
		t.Fatalf("drain: %d chunks, %v", n, err)
	}
}

// TestTruncationEveryPrefix cuts a stream at every byte. A cut inside the
// prelude or a chunk is ErrTruncated; a cut at a chunk boundary is a bare
// io.EOF after the chunks before it.
func TestTruncationEveryPrefix(t *testing.T) {
	data := testStream()
	boundaries := map[int]int{} // prefix length -> chunks before it
	rest, n := data[PreludeBytes:], 0
	boundaries[PreludeBytes] = 0
	for len(rest) > 0 {
		_, _, next, err := testFormat.Cut(rest)
		if err != nil {
			t.Fatal(err)
		}
		rest, n = next, n+1
		boundaries[len(data)-len(rest)] = n
	}
	for cut := 0; cut <= len(data); cut++ {
		got, err := drain(t, data[:cut])
		if want, ok := boundaries[cut]; ok {
			if err != io.EOF || got != want {
				t.Fatalf("cut at boundary %d: %d chunks, %v; want %d chunks, io.EOF", cut, got, err, want)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: %v, want ErrTruncated", cut, len(data), err)
		}
	}
}

// TestSingleBitFlips flips every bit of a stream. A flip in the magic is
// ErrCorrupt, in the version ErrVersion; past the prelude the CRC catches
// it as ErrCorrupt, except that a flip in a length field can also make
// the chunk run past the end of the stream (ErrTruncated).
func TestSingleBitFlips(t *testing.T) {
	data := testStream()
	mut := append([]byte(nil), data...)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			mut[i] ^= 1 << bit
			_, err := drain(t, mut)
			var ok bool
			switch {
			case i < 8:
				ok = errors.Is(err, ErrCorrupt)
			case i < PreludeBytes:
				ok = errors.Is(err, ErrVersion)
			default:
				ok = errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated)
			}
			if !ok {
				t.Fatalf("flip byte %d bit %d: %v", i, bit, err)
			}
			mut[i] ^= 1 << bit
		}
	}
}

// TestLengthOverLimit checks that a length field above the format's
// limit is ErrCorrupt before any of the body is read.
func TestLengthOverLimit(t *testing.T) {
	small := Format{Name: "small", Magic: testFormat.Magic, Version: 1, MaxPayload: 8}
	ok := Append(nil, 0x01, make([]byte, 8))
	if _, _, err := small.Read(bytes.NewReader(ok)); err != nil {
		t.Fatalf("payload at the limit: %v", err)
	}
	over := Append(nil, 0x01, make([]byte, 9))
	if _, _, err := small.Read(bytes.NewReader(over[:headBytes])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read over the limit: %v, want ErrCorrupt", err)
	}
	if _, _, _, err := small.Cut(over); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Cut over the limit: %v, want ErrCorrupt", err)
	}
}

// TestPrelude checks the prelude: round trip, bad magic, bad version,
// and a stream too short to hold one.
func TestPrelude(t *testing.T) {
	pre := testFormat.AppendPrelude(nil)
	if len(pre) != PreludeBytes {
		t.Fatalf("prelude is %d bytes, want %d", len(pre), PreludeBytes)
	}
	if err := testFormat.ReadPrelude(bytes.NewReader(pre)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	other := Format{Name: "other", Magic: "SAIYOTH\x00", Version: testFormat.Version}
	if err := other.ReadPrelude(bytes.NewReader(pre)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v, want ErrCorrupt", err)
	}
	newer := testFormat
	newer.Version++
	if err := newer.ReadPrelude(bytes.NewReader(pre)); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v, want ErrVersion", err)
	}
	for _, short := range [][]byte{nil, pre[:1], pre[:PreludeBytes-1]} {
		if err := testFormat.ReadPrelude(bytes.NewReader(short)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%d-byte prelude: %v, want ErrTruncated", len(short), err)
		}
	}
}

// TestHostileLengthAllocation feeds Read a 5-byte chunk header that
// claims a payload just under 16 MiB and then ends. Read must fail with
// ErrTruncated without allocating anywhere near the claimed size.
func TestHostileLengthAllocation(t *testing.T) {
	hostile := []byte{0x02, 0xff, 0xff, 0xff, 0x00}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := testFormat.Read(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile length: %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("hostile length allocated %d bytes, want < 1 MiB", got)
	}
}

// TestSmallChunkOneAllocation pins the cost of the common case: a chunk
// of up to smallChunk bytes, framing included, takes one allocation.
func TestSmallChunkOneAllocation(t *testing.T) {
	msg := Append(nil, 0x11, make([]byte, smallChunk-headBytes-crcBytes))
	r := bytes.NewReader(msg)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(msg)
		if _, _, err := testFormat.Read(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Read of a %d-byte chunk: %.1f allocs, want 1", len(msg), allocs)
	}
}

// TestLargeChunkGrows reads chunks longer than the up-front buffer from
// a reader that returns few bytes per call, so the body grows across
// many reads.
func TestLargeChunkGrows(t *testing.T) {
	for _, n := range []int{smallChunk, growStep - 1, growStep + 1, 3*growStep + 17} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		r := iotest.HalfReader(bytes.NewReader(Append(nil, 0x07, payload)))
		typ, got, err := testFormat.Read(r)
		if err != nil || typ != 0x07 || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload: typ=%#x, %d bytes back, err=%v", n, typ, len(got), err)
		}
	}
}

// TestReaderErrorsPassThrough checks that an error from the underlying
// reader other than running out of bytes (a deadline, a closed
// connection) reaches the caller unchanged, not as ErrTruncated.
func TestReaderErrorsPassThrough(t *testing.T) {
	msg := Append(nil, 0x01, []byte("payload"))
	for _, at := range []int{0, 3, headBytes, len(msg) - 1} {
		r := io.MultiReader(bytes.NewReader(msg[:at]), iotest.ErrReader(os.ErrDeadlineExceeded))
		_, _, err := testFormat.Read(r)
		if !errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, ErrTruncated) {
			t.Fatalf("error after %d bytes: %v, want the reader's deadline error", at, err)
		}
	}
	r := iotest.ErrReader(os.ErrDeadlineExceeded)
	if err := testFormat.ReadPrelude(r); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("prelude: %v, want the reader's deadline error", err)
	}
}

// TestCursor checks the payload cursor: every width, the latched
// overrun, the element-count guard and the stray-byte check.
func TestCursor(t *testing.T) {
	buf := []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f}
	c := NewCursor(buf)
	if c.U8() != 0x01 || c.U16() != 0x0302 || c.U32() != 0x07060504 || c.U64() != 0x0f0e0d0c0b0a0908 {
		t.Fatal("little-endian reads decoded the wrong values")
	}
	if err := c.Done(); err != nil {
		t.Fatalf("fully read payload: %v", err)
	}
	if c.U8() != 0 || !errors.Is(c.Done(), ErrCorrupt) {
		t.Fatal("read past the end did not latch ErrCorrupt")
	}
	c = NewCursor(buf[:3])
	if c.U32() != 0 || c.U8() != 0 || !errors.Is(c.Done(), ErrCorrupt) {
		t.Fatal("overrun must latch: later reads return zero and Done reports it")
	}
	if err := NewCursor(buf[:2]).Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stray bytes: %v, want ErrCorrupt", err)
	}
	for _, count := range []uint32{0x80000000, 0xffffffff, 3} {
		p := []byte{byte(count), byte(count >> 8), byte(count >> 16), byte(count >> 24), 0, 0, 0, 0}
		c := NewCursor(p)
		if n := c.Count(2); n != 0 || !errors.Is(c.Done(), ErrCorrupt) {
			t.Fatalf("count %#x of 2-byte elements over 4 bytes: n=%d err=%v", count, n, c.Done())
		}
	}
	c = NewCursor([]byte{2, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd})
	if n := c.Count(2); n != 2 || !bytes.Equal(c.Bytes(2*n), []byte{0xaa, 0xbb, 0xcc, 0xdd}) || c.Done() != nil {
		t.Fatal("count that fits was rejected")
	}
}

// FuzzChunkRead feeds arbitrary bytes to the prelude check, Read and Cut.
// Nothing may panic, every error must be io.EOF or one of the three
// sentinels, and Read and Cut must agree chunk by chunk.
func FuzzChunkRead(f *testing.F) {
	full := testStream()
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(full[:PreludeBytes])
	f.Add([]byte(testFormat.Magic))
	f.Add(append(testFormat.AppendPrelude(nil), 0x02, 0xff, 0xff, 0xff, 0x00))
	mut := append([]byte(nil), full...)
	mut[20] ^= 0x10
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := drain(t, data)
		if err != io.EOF && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrVersion) {
			t.Fatalf("unexpected error: %v", err)
		}
	})
}
