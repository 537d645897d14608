package flight

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"saiyan/internal/chunk"
)

func TestTraceIDDeterministicAndNonzero(t *testing.T) {
	a := TraceID(3, 1, 7, 42)
	b := TraceID(3, 1, 7, 42)
	if a != b {
		t.Fatalf("TraceID not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("TraceID returned the 0 sentinel")
	}
	seen := map[uint64]bool{}
	for epoch := 0; epoch < 4; epoch++ {
		for ch := 0; ch < 3; ch++ {
			for tag := 0; tag < 5; tag++ {
				for seq := uint64(0); seq < 6; seq++ {
					id := TraceID(epoch, ch, tag, seq)
					if id == 0 {
						t.Fatalf("zero trace for (%d,%d,%d,%d)", epoch, ch, tag, seq)
					}
					if seen[id] {
						t.Fatalf("trace collision at (%d,%d,%d,%d)", epoch, ch, tag, seq)
					}
					seen[id] = true
				}
			}
		}
	}
}

func TestFormatParseTraceRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xdeadbeef, math.MaxUint64, TraceID(1, 2, 3, 4)} {
		s := FormatTrace(v)
		if len(s) != 16 {
			t.Fatalf("FormatTrace(%d) = %q, want 16 hex digits", v, s)
		}
		got, ok := ParseTrace(s)
		if !ok || got != v {
			t.Fatalf("ParseTrace(%q) = %d,%v want %d", s, got, ok, v)
		}
		got, ok = ParseTrace("0x" + s)
		if !ok || got != v {
			t.Fatalf("ParseTrace(0x%s) = %d,%v want %d", s, got, ok, v)
		}
	}
	if _, ok := ParseTrace("not-hex"); ok {
		t.Fatal("ParseTrace accepted garbage")
	}
}

// TestParseTraceStrictGrammar pins the exact grammar: 16 hex digits
// after an optional 0x prefix, nothing else. Lenient widening (short
// IDs, sign characters, underscore grouping — all of which
// strconv.ParseUint would accept) must be rejected, because a trace ID
// mangled in transit should fail the query, not hit a different frame.
// The obs telemetry plane validates /flight?trace= with ParseTrace, so
// these cases cover that endpoint's grammar too.
func TestParseTraceStrictGrammar(t *testing.T) {
	accept := []string{
		"0123456789abcdef",
		"0123456789ABCDEF",
		"0x0123456789abcdef",
		"0Xfedcba9876543210",
		"0000000000000000", // zero parses; it is only unreachable as an ID
		"ffffffffffffffff",
		"00000000DEADBEEF",
		"0XAAAAAAAAAAAAAAAA",
	}
	for _, s := range accept {
		if _, ok := ParseTrace(s); !ok {
			t.Errorf("ParseTrace(%q) rejected a well-formed trace", s)
		}
	}
	reject := []string{
		"",
		"0x",
		"deadbeef",            // 8 digits: truncated paste
		"0123456789abcde",     // 15 digits
		"0123456789abcdef0",   // 17 digits
		"0x123456789abcdef",   // 15 after prefix
		"0x0123456789abcdef0", // 17 after prefix
		" 0123456789abcdef",   // leading space
		"0123456789abcdef ",   // trailing space
		"0123456789abcdeg",    // non-hex digit
		"0123_4567_89ab_cdef", // underscore grouping
		"+123456789abcdef0",   // sign
		"-123456789abcdef0",   // sign
		"0x0x123456789abcde",  // double prefix
		"00x0123456789abcdef", // misplaced prefix
		"0123456789abcdef\n",  // trailing newline from a log paste
		"٠123456789abcdef",    // non-ASCII digit
		"abc",                 // short, no prefix
		"0xabc",               // short after prefix
		"00000000deadbee",     // 15 digits
		"00000000deadbeef0",   // 17 digits
		"zz000000deadbeef",    // non-hex prefix letters
		"0x0x000000000000",    // double prefix, 16 bytes long
		" 000000000000000",    // leading space, 16 bytes long
		"0000000000000000 ",   // trailing space
	}
	for _, s := range reject {
		if v, ok := ParseTrace(s); ok {
			t.Errorf("ParseTrace(%q) = %x, want rejection", s, v)
		}
	}
}

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	r.Append(0, Span{Trace: 1})
	r.BeginEpoch(3)
	r.SetHook(func(Dump) {})
	r.Trigger(KindDecodeFailure, 0, 0, 0, 0, 1)
	if got := r.Recent(10); got != nil {
		t.Fatalf("nil Recent = %v", got)
	}
	if got := r.Find(1); got != nil {
		t.Fatalf("nil Find = %v", got)
	}
}

func TestTriggerFiltersSortsAndHooks(t *testing.T) {
	r := New(Options{Shards: 3})
	tr1 := TraceID(0, 0, 1, 10)
	tr2 := TraceID(0, 0, 2, 20)
	// Spread one trace's spans across shards in "wrong" order.
	r.Append(2, Span{Trace: tr1, Stage: StageDecode, Decision: DecodeErr, A: -1})
	r.Append(0, Span{Trace: tr1, Stage: StageSegment, Decision: WindowMatched, A: -92})
	r.Append(1, Span{Trace: tr2, Stage: StageDecode, Decision: DecodeOK})
	r.Append(0, Span{Trace: tr1, Stage: StageFold, Decision: Missing})

	var hooked []Dump
	r.SetHook(func(d Dump) { hooked = append(hooked, d) })
	r.Trigger(KindDecodeFailure, 5, 1, 1, 10, tr1)

	dumps := r.Recent(10)
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if d.ID != 1 || d.Kind != KindDecodeFailure || d.Epoch != 5 || d.Channel != 1 || d.Tag != 1 || d.Seq != 10 {
		t.Fatalf("dump metadata = %+v", d)
	}
	if len(d.Spans) != 3 {
		t.Fatalf("got %d spans, want 3 (tr2 must be filtered out)", len(d.Spans))
	}
	wantStages := []Stage{StageSegment, StageDecode, StageFold}
	for i, s := range d.Spans {
		if s.Trace != tr1 {
			t.Fatalf("span %d trace %x, want %x", i, s.Trace, tr1)
		}
		if s.Stage != wantStages[i] {
			t.Fatalf("span %d stage %v, want %v (content sort)", i, s.Stage, wantStages[i])
		}
	}
	if len(hooked) != 1 || hooked[0].ID != 1 {
		t.Fatalf("hook saw %v", hooked)
	}

	if got := r.Find(tr1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Find(tr1) = %v", got)
	}
	if got := r.Find(tr2); got != nil {
		t.Fatalf("Find(tr2) = %v, want none", got)
	}
}

func TestDumpOrderIndependentOfShardPlacement(t *testing.T) {
	// The same spans appended to different shards in different orders
	// must trigger byte-identical dumps — the worker-count bar.
	spans := []Span{
		{Trace: 9, Stage: StageSegment, Decision: WindowMatched, Seq: 1, A: -80},
		{Trace: 9, Stage: StageDecode, Decision: DecodeOK, Seq: 1, B: 128},
		{Trace: 9, Stage: StageFold, Decision: Delivered, Seq: 1, A: 11.5},
	}
	encode := func(shards int, order []int) []byte {
		r := New(Options{Shards: shards})
		for i, idx := range order {
			r.Append(i%shards, spans[idx])
		}
		r.Trigger(KindOperator, 0, 0, 0, 1, 9)
		return EncodeDump(nil, r.Recent(1)[0])
	}
	a := encode(1, []int{0, 1, 2})
	b := encode(4, []int{2, 0, 1})
	if !bytes.Equal(a, b) {
		t.Fatal("dump bytes differ across shard placements")
	}
}

func TestBeginEpochResetsRings(t *testing.T) {
	r := New(Options{Shards: 1})
	r.Append(0, Span{Trace: 7, Stage: StageDecode, Decision: DecodeOK})
	r.BeginEpoch(1)
	r.Trigger(KindOperator, 1, 0, 0, 0, 7)
	if d := r.Recent(1); len(d) != 1 || len(d[0].Spans) != 0 {
		t.Fatalf("spans survived BeginEpoch: %+v", d)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	const extra = 6
	r := New(Options{Shards: 1})
	for i := 0; i < spanCap+extra; i++ {
		r.Append(0, Span{Trace: 5, Seq: uint32(i), Stage: StageDecode, Decision: DecodeOK})
	}
	spans := r.collect([]uint64{5})
	if len(spans) != spanCap {
		t.Fatalf("ring holds %d spans, want the %d newest", len(spans), spanCap)
	}
	for _, s := range spans {
		if s.Seq < extra {
			t.Fatalf("stale span survived wrap: %+v", s)
		}
	}
	// A dump of the wrapped ring starts at the oldest surviving span.
	r.Trigger(KindOperator, 0, 0, 0, 0, 5)
	if d := r.Recent(1)[0]; d.Spans[0].Seq != extra {
		t.Fatalf("dump starts at seq %d, want %d", d.Spans[0].Seq, extra)
	}
}

func TestDumpRingEviction(t *testing.T) {
	const extra = 3
	r := New(Options{Shards: 1})
	for i := 0; i < dumpCap+extra; i++ {
		r.Append(0, Span{Trace: uint64(100 + i)})
		r.Trigger(KindRetx, i, 0, 0, 0, uint64(100+i))
	}
	dumps := r.Recent(2 * dumpCap)
	if len(dumps) != dumpCap {
		t.Fatalf("got %d dumps, want dumpCap=%d", len(dumps), dumpCap)
	}
	if first, last := dumps[0].ID, dumps[len(dumps)-1].ID; first != extra+1 || last != dumpCap+extra {
		t.Fatalf("retained ids %d..%d want %d..%d", first, last, extra+1, dumpCap+extra)
	}
	if got := r.Find(100); got != nil {
		t.Fatalf("evicted dump still found: %+v", got)
	}
}

func TestMaxSpansTruncation(t *testing.T) {
	r := New(Options{Shards: 1})
	// Append in descending seq order so truncation has to sort first.
	for i := maxSpans + 8; i > 0; i-- {
		r.Append(0, Span{Trace: 3, Seq: uint32(i - 1)})
	}
	r.Trigger(KindOperator, 0, 0, 0, 0, 3)
	d := r.Recent(1)[0]
	if len(d.Spans) != maxSpans {
		t.Fatalf("got %d spans, want maxSpans=%d", len(d.Spans), maxSpans)
	}
	// Truncation happens after the content sort, so it keeps the
	// lowest-sorting spans deterministically.
	for i, s := range d.Spans {
		if s.Seq != uint32(i) {
			t.Fatalf("span %d seq %d after truncation", i, s.Seq)
		}
	}
}

func TestEncodeDecodeDumpRoundTrip(t *testing.T) {
	d := Dump{
		ID: 3, Kind: KindHop, Epoch: 7, Channel: 2, Tag: 4, Seq: 99,
		Traces: []uint64{1, TraceID(7, 2, 4, 99)},
		Spans: []Span{
			{Trace: 1, Seq: 9, Epoch: 7, Tag: 4, Channel: 2, Stage: StageSegment, Decision: WindowMatched, A: -85.25, B: 4096},
			{Trace: 1, Seq: 9, Epoch: 7, Tag: 4, Channel: 2, Stage: StageControl, Decision: Hop, A: 2, B: 0},
		},
	}
	buf := EncodeDump(nil, d)
	got, err := DecodeDump(buf)
	if err != nil {
		t.Fatalf("DecodeDump: %v", err)
	}
	if got.ID != d.ID || got.Kind != d.Kind || got.Epoch != d.Epoch ||
		got.Channel != d.Channel || got.Tag != d.Tag || got.Seq != d.Seq {
		t.Fatalf("metadata round trip: got %+v want %+v", got, d)
	}
	if len(got.Traces) != 2 || got.Traces[0] != d.Traces[0] || got.Traces[1] != d.Traces[1] {
		t.Fatalf("traces round trip: %v", got.Traces)
	}
	if len(got.Spans) != 2 || got.Spans[0] != d.Spans[0] || got.Spans[1] != d.Spans[1] {
		t.Fatalf("spans round trip: %+v", got.Spans)
	}
	// Re-encoding the decoded dump must be byte-identical.
	if !bytes.Equal(buf, EncodeDump(nil, got)) {
		t.Fatal("re-encode differs")
	}
}

func TestDecodeDumpCorruption(t *testing.T) {
	d := Dump{ID: 1, Kind: KindRetx, Traces: []uint64{5}, Spans: []Span{{Trace: 5}}}
	good := EncodeDump(nil, d)

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("WRONGMG\x00"), good[8:]...),
		"truncated": good[:len(good)-6],
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-10] ^= 0xff
	cases["bit flip"] = flipped
	for name, buf := range cases {
		if _, err := DecodeDump(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	bad := append([]byte(nil), good...)
	bad[8] = 0xEE // version field
	if _, err := DecodeDump(bad); !errors.Is(err, chunk.ErrVersion) {
		t.Errorf("version: err = %v, want ErrVersion", err)
	}
}

// TestDecodeDumpTruncationEveryPrefix feeds DecodeDump every strict
// prefix of a well-formed dump. All of them must error: the prelude
// check catches short buffers, the chunk framing catches mid-chunk
// cuts, and the mandatory trailer catches cuts at chunk boundaries —
// there is no prefix length at which a partial dump passes for a
// complete one.
func TestDecodeDumpTruncationEveryPrefix(t *testing.T) {
	d := Dump{
		ID: 2, Kind: KindDecodeFailure, Epoch: 3, Channel: 1, Tag: 9,
		Traces: []uint64{TraceID(3, 1, 9, 0)},
		Spans: []Span{
			{Trace: TraceID(3, 1, 9, 0), Stage: StageFold, Decision: Missing},
			{Trace: TraceID(3, 1, 9, 0), Stage: StageControl, Decision: Hop},
		},
	}
	good := EncodeDump(nil, d)
	for n := 0; n < len(good); n++ {
		if _, err := DecodeDump(good[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrCorrupt", n, len(good), err)
		}
	}
}

// TestDecodeDumpSingleBitFlips flips every bit of a well-formed dump,
// one at a time. Each flip must surface as an error — magic and version
// damage through the prelude checks, everything else through the
// per-chunk CRC — so no single-bit transport fault can silently change
// what a black box says happened.
func TestDecodeDumpSingleBitFlips(t *testing.T) {
	d := Dump{
		ID: 4, Kind: KindPRRCollapse, Epoch: 11, Channel: 0, Tag: 2, Seq: 5,
		Traces: []uint64{TraceID(11, 0, 2, 5)},
		Spans:  []Span{{Trace: TraceID(11, 0, 2, 5), Stage: StageDecode, Decision: DecodeErr, A: -2.5}},
	}
	good := EncodeDump(nil, d)
	flipped := append([]byte(nil), good...)
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			flipped[i] ^= 1 << bit
			_, err := DecodeDump(flipped)
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, chunk.ErrVersion) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrCorrupt or ErrVersion", i, bit, err)
			}
			flipped[i] ^= 1 << bit
		}
	}
}

func TestDumpJSONRendering(t *testing.T) {
	d := Dump{
		ID: 2, Kind: KindDecodeFailure, Epoch: 1, Channel: 0, Tag: 3, Seq: 12,
		Traces: []uint64{0xabc},
		Spans: []Span{
			{Trace: 0xabc, Stage: StageDecode, Decision: DecodeErr, A: math.NaN(), B: math.Inf(1)},
		},
	}
	var got struct {
		Kind   string `json:"kind"`
		Traces []string
		Spans  []struct {
			Trace    string
			Stage    string
			Decision string
			A, B     float64
		}
	}
	b, err := json.Marshal(renderDump(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("dump JSON does not parse: %v", err)
	}
	if got.Kind != "decode-failure" {
		t.Fatalf("kind = %q", got.Kind)
	}
	if len(got.Traces) != 1 || got.Traces[0] != "0000000000000abc" {
		t.Fatalf("traces = %v", got.Traces)
	}
	if len(got.Spans) != 1 || got.Spans[0].Stage != "decode" || got.Spans[0].Decision != "decode-err" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if got.Spans[0].A != 0 || got.Spans[0].B != math.MaxFloat64 {
		t.Fatalf("NaN/Inf not sanitized: %+v", got.Spans[0])
	}
}

func TestRecentAndQueryJSON(t *testing.T) {
	r := New(Options{Shards: 1})
	tr := TraceID(0, 0, 1, 1)
	r.Append(0, Span{Trace: tr, Stage: StageFold, Decision: Missing})
	r.Trigger(KindDecodeFailure, 0, 0, 1, 1, tr)

	var dumps []json.RawMessage
	if err := json.Unmarshal(r.RecentJSON(10), &dumps); err != nil || len(dumps) != 1 {
		t.Fatalf("RecentJSON: %v (%d dumps)", err, len(dumps))
	}
	if err := json.Unmarshal(r.QueryJSON(FormatTrace(tr)), &dumps); err != nil || len(dumps) != 1 {
		t.Fatalf("QueryJSON(hit): %v (%d dumps)", err, len(dumps))
	}
	if err := json.Unmarshal(r.QueryJSON("ffffffffffffffff"), &dumps); err != nil || len(dumps) != 0 {
		t.Fatalf("QueryJSON(miss): %v (%d dumps)", err, len(dumps))
	}
	if string(r.QueryJSON("zzz")) != "[]" {
		t.Fatal("QueryJSON(garbage) should be empty array")
	}
	var nilRec *Recorder
	if string(nilRec.RecentJSON(5)) != "[]" {
		t.Fatal("nil RecentJSON should render empty array")
	}
}

func TestAppendZeroAlloc(t *testing.T) {
	r := New(Options{Shards: 2})
	s := Span{Trace: 1, Stage: StageDecode, Decision: DecodeOK, A: 1, B: 2}
	allocs := testing.AllocsPerRun(1000, func() { r.Append(1, s) })
	if allocs != 0 {
		t.Fatalf("Append allocates %.1f allocs/op, want 0", allocs)
	}
	var nilRec *Recorder
	allocs = testing.AllocsPerRun(1000, func() { nilRec.Append(0, s) })
	if allocs != 0 {
		t.Fatalf("nil Append allocates %.1f allocs/op, want 0", allocs)
	}
}
