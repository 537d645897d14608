package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/radio"
)

// testHeader returns a fully populated header for round-trip checks.
func testHeader() Header {
	budget := radio.DefaultLinkBudget()
	return Header{
		Demod:                core.DefaultConfig(),
		Seed:                 20220404,
		CalibrationQuantumDB: 1,
		Link:                 &budget,
		Description:          "unit test capture",
	}
}

// testRecords covers every optional section combination.
func testRecords() []*Record {
	return []*Record{
		{
			Seq: 0, Tag: 3, RSSDBm: -71.25, NoiseSeed: 0,
			Payload: []uint16{1, 0, 1, 1}, Want: []uint16{1, 0, 1, 1},
			Detected: true, HasDecoded: true, Decoded: []uint16{1, 0, 1, 1},
		},
		{
			// Preamble missed: decisions recorded, nothing decoded.
			Seq: 1, Tag: -1, RSSDBm: -113.5, NoiseSeed: 1,
			Payload: []uint16{0, 1}, Detected: false, HasDecoded: true, Decoded: []uint16{},
		},
		{
			// Raw capture style: samples, no ground truth, no decisions.
			Seq: 2, Tag: 9, RSSDBm: -88, NoiseSeed: 77,
			Payload: []uint16{1},
			Traj:    []float64{433.5e6, 433.6e6, 433.7e6},
			Env:     []float64{0.25, 0.5, 1.0, 0.5},
		},
	}
}

// encodeTrace writes a complete in-memory trace.
func encodeTrace(t testing.TB, hdr Header, recs []*Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll drains a trace stream.
func readAll(t testing.TB, data []byte) (Header, []*Record, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return Header{}, nil, err
	}
	var recs []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return r.Header(), recs, nil
		}
		if err != nil {
			return r.Header(), recs, err
		}
		recs = append(recs, rec)
	}
}

func TestRoundTrip(t *testing.T) {
	hdr := testHeader()
	want := testRecords()
	data := encodeTrace(t, hdr, want)

	gotHdr, got, err := readAll(t, data)
	if err != nil {
		t.Fatalf("reading trace back: %v", err)
	}
	if !reflect.DeepEqual(gotHdr, hdr) {
		t.Errorf("header round trip:\n got %+v\nwant %+v", gotHdr, hdr)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d round trip:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestHeaderCarriesConfig verifies the JSON header reproduces a non-default
// demodulator configuration, including the SAW filter's response anchors.
func TestHeaderCarriesConfig(t *testing.T) {
	hdr := testHeader()
	hdr.Demod.Mode = core.ModeVanilla
	hdr.Demod.SampleRateMultiplier = 4.8
	hdr.Demod.SAW.SetDrift(-120e3)
	data := encodeTrace(t, hdr, nil)
	gotHdr, _, err := readAll(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr.Demod.Mode != core.ModeVanilla || gotHdr.Demod.SampleRateMultiplier != 4.8 {
		t.Errorf("demod config lost: %+v", gotHdr.Demod)
	}
	if got := gotHdr.Demod.SAW.Drift(); got != -120e3 {
		t.Errorf("SAW drift = %g, want -120e3", got)
	}
	if got, want := gotHdr.Demod.SAW.AmplitudeGapDB(500e3), hdr.Demod.SAW.AmplitudeGapDB(500e3); got != want {
		t.Errorf("SAW response changed: gap %g dB, want %g dB", got, want)
	}
}

// TestTruncation cuts a valid trace at every possible byte boundary: the
// reader must never panic, must deliver only complete records, and must
// report ErrTruncated (or a clean EOF for the full file).
func TestTruncation(t *testing.T) {
	data := encodeTrace(t, testHeader(), testRecords())
	for cut := 0; cut < len(data); cut++ {
		_, recs, err := readAll(t, data[:cut])
		if err == nil {
			t.Fatalf("cut at %d/%d bytes: no error", cut, len(data))
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("cut at %d/%d bytes: clean EOF for truncated input", cut, len(data))
		}
		if len(recs) > len(testRecords()) {
			t.Fatalf("cut at %d: delivered %d records from a truncated file", cut, len(recs))
		}
	}
	// The full file reads cleanly.
	if _, recs, err := readAll(t, data); err != nil || len(recs) != len(testRecords()) {
		t.Fatalf("full file: %d records, err=%v", len(recs), err)
	}
}

// TestTruncatedKeepsCompleteRecords verifies graceful degradation: cutting
// after the second record still yields both complete records.
func TestTruncatedKeepsCompleteRecords(t *testing.T) {
	hdr := testHeader()
	recs := testRecords()
	prefix := encodeTrace(t, hdr, recs[:2])
	// encodeTrace appends a trailer chunk (1 type + 4 len + 8 payload +
	// 4 crc = 17 bytes); strip it to simulate a crash mid-capture.
	cut := prefix[:len(prefix)-17]

	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var got []*Record
	var lastErr error
	for {
		rec, err := r.Next()
		if err != nil {
			lastErr = err
			break
		}
		got = append(got, rec)
	}
	if !errors.Is(lastErr, ErrTruncated) {
		t.Fatalf("truncated trace error = %v, want ErrTruncated", lastErr)
	}
	if r.done {
		t.Error("Complete() true for truncated trace")
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], recs[0]) || !reflect.DeepEqual(got[1], recs[1]) {
		t.Errorf("truncated trace delivered %d records, want the 2 complete ones", len(got))
	}
}

// TestCorruption flips each byte of a valid trace in turn: every flip must
// surface an error (CRC framing covers every byte past the version field)
// and must never panic.
func TestCorruption(t *testing.T) {
	data := encodeTrace(t, testHeader(), testRecords())
	// Exhaustive over the whole file would be slow under -race; stride
	// through it and always hit the first bytes (magic/version).
	for pos := 0; pos < len(data); pos += 7 {
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0x41
		_, _, err := readAll(t, corrupt)
		if err == nil {
			t.Fatalf("flip at byte %d: trace still read cleanly", pos)
		}
	}
	// A CRC flip specifically must report ErrCorrupt.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0xff // trailer CRC byte
	if _, _, err := readAll(t, corrupt); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailer CRC flip: err=%v, want ErrCorrupt", err)
	}
}

// TestHostileElementCount verifies a crafted frame chunk (valid CRC,
// absurd element count) surfaces ErrCorrupt — never an overflowed bounds
// check, allocation bomb, or panic, on any platform word size.
func TestHostileElementCount(t *testing.T) {
	for _, count := range []uint32{0x80000000, 0xffffffff, 1 << 20} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		// Record fixed prefix: seq(8) tag(4) rss(8) noiseSeed(8) flags(1),
		// then a payload element count with no elements behind it.
		payload := make([]byte, 29)
		payload = append(payload, byte(count), byte(count>>8), byte(count>>16), byte(count>>24))
		if err := w.writeChunk(chunkFrame, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, err = readAll(t, buf.Bytes())
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("count %#x: err=%v, want ErrCorrupt", count, err)
		}
	}
}

// TestUnknownChunkSkipped verifies forward compatibility: an unrecognized
// chunk type with a valid CRC is skipped, not fatal.
func TestUnknownChunkSkipped(t *testing.T) {
	hdr := testHeader()
	recs := testRecords()[:1]
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.writeChunk(200, []byte("future extension")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := readAll(t, buf.Bytes())
	if err != nil {
		t.Fatalf("unknown chunk was fatal: %v", err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], recs[0]) {
		t.Errorf("records around unknown chunk: got %d, want 1", len(got))
	}
}

// TestTrailingDataRejected verifies the trailer must be the last chunk:
// bytes after it (e.g. two traces concatenated) are a corruption error,
// not a silently ignored tail.
func TestTrailingDataRejected(t *testing.T) {
	data := encodeTrace(t, testHeader(), testRecords())
	glued := append(append([]byte(nil), data...), "stray bytes"...)
	if _, _, err := readAll(t, glued); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing data: err=%v, want ErrCorrupt", err)
	}
}

// TestVersionRejected verifies the reader refuses future format versions.
func TestVersionRejected(t *testing.T) {
	data := encodeTrace(t, testHeader(), nil)
	data[8] = Version + 1
	if _, _, err := readAll(t, data); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err=%v, want ErrVersion", err)
	}
}

// TestGzipFileRoundTrip exercises Create/Open: a ".gz" path compresses and
// the reader sniffs it transparently; a bare path stays raw.
func TestGzipFileRoundTrip(t *testing.T) {
	for _, name := range []string{"t.trace", "t.trace.gz"} {
		path := filepath.Join(t.TempDir(), name)
		w, err := Create(path, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range testRecords() {
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := 0
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			n++
		}
		if n != len(testRecords()) {
			t.Errorf("%s: %d records, want %d", name, n, len(testRecords()))
		}
		if !r.done {
			t.Errorf("%s: Complete() false after clean drain", name)
		}
		if err := r.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
	}
}

// TestAbortLeavesTruncated verifies an aborted capture can never pass for
// a complete one: the records written survive, but draining the file
// reports ErrTruncated because no trailer was written.
func TestAbortLeavesTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "aborted.trace.gz")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()[:2]
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(recs[0]); err == nil {
		t.Error("WriteRecord after Abort succeeded")
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []*Record
	var lastErr error
	for {
		rec, err := r.Next()
		if err != nil {
			lastErr = err
			break
		}
		got = append(got, rec)
	}
	if !errors.Is(lastErr, ErrTruncated) {
		t.Errorf("aborted trace drained with %v, want ErrTruncated", lastErr)
	}
	if r.done {
		t.Error("Complete() true for aborted trace")
	}
	if len(got) != len(recs) || !reflect.DeepEqual(got[0], recs[0]) {
		t.Errorf("aborted trace delivered %d records, want the %d written", len(got), len(recs))
	}
}

// TestWriteAfterClose verifies the writer's terminal state is sticky.
func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(testRecords()[0]); err == nil {
		t.Error("WriteRecord after Close succeeded")
	}
	if err := w.Close(); err == nil {
		t.Error("second Close cleared the sticky error")
	}
}

// TestGoldenTraceReencodes decodes the checked-in golden trace and
// re-encodes it uncompressed: the prelude, every record chunk and the
// trailer must equal the gunzipped file byte for byte, so the writer
// still produces what earlier builds wrote. The header chunk is the one
// exception: its JSON gained fields (core.Config's Datapath and ADCBits)
// after the file was recorded, so only its decoded value is compared.
func TestGoldenTraceReencodes(t *testing.T) {
	const path = "../pipeline/testdata/golden.trace.gz"
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := readAll(t, raw)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	if len(recs) == 0 {
		t.Fatalf("%s holds no records", path)
	}
	got := encodeTrace(t, hdr, recs)
	if gotHdr, _, err := readAll(t, got); err != nil || !reflect.DeepEqual(gotHdr, hdr) {
		t.Fatalf("re-encoded header: %+v, err=%v", gotHdr, err)
	}
	// afterHeader returns the bytes behind the header chunk, which
	// starts right after the 12-byte prelude: type(1) length(4)
	// payload crc(4).
	afterHeader := func(b []byte) []byte {
		return b[12+5+int(binary.LittleEndian.Uint32(b[13:]))+4:]
	}
	if !bytes.Equal(got[:12], raw[:12]) {
		t.Fatalf("prelude % x, file has % x", got[:12], raw[:12])
	}
	if a, b := afterHeader(got), afterHeader(raw); !bytes.Equal(a, b) {
		t.Fatalf("re-encoded records and trailer differ: %d bytes, file has %d", len(a), len(b))
	}
}
