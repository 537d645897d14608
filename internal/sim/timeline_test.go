package sim

import (
	"testing"

	"saiyan/internal/core"
	"saiyan/internal/lora"
	"saiyan/internal/radio"
)

func testTagSet(t testing.TB, n int) *TagSet {
	t.Helper()
	ts, err := NewTagSet(lora.DefaultParams(), radio.DefaultLinkBudget(), n, 20, 80, 20220404)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestRenderTimelineDeterministic(t *testing.T) {
	ts := testTagSet(t, 3)
	a, err := ts.RenderTimeline(core.DefaultConfig(), TimelineConfig{FramesPerTag: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ts.RenderTimeline(core.DefaultConfig(), TimelineConfig{FramesPerTag: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Env) != len(b.Env) || len(a.EnvC) != len(b.EnvC) {
		t.Fatalf("render lengths diverged: %d/%d vs %d/%d", len(a.Env), len(a.EnvC), len(b.Env), len(b.EnvC))
	}
	for i := range a.Env {
		if a.Env[i] != b.Env[i] {
			t.Fatalf("Env[%d] diverged between identical renders", i)
		}
	}
	for i := range a.Events {
		if a.Events[i].StartSim != b.Events[i].StartSim {
			t.Fatalf("event %d scheduled at %d then %d", i, a.Events[i].StartSim, b.Events[i].StartSim)
		}
	}
}

func TestTimelineScheduleShape(t *testing.T) {
	ts := testTagSet(t, 3)
	tl := TimelineConfig{FramesPerTag: 4, MinGapSymbols: 2, MaxGapSymbols: 10}
	s, err := ts.RenderTimeline(core.DefaultConfig(), tl)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 12 {
		t.Fatalf("scheduled %d events, want 12", len(s.Events))
	}
	frameSym := float64(lora.PreambleUpchirps) + lora.SyncSymbols + float64(s.PayloadSymbols)
	for i := 1; i < len(s.Events); i++ {
		prev, cur := s.Events[i-1], s.Events[i]
		if cur.StartSim <= prev.StartSim {
			t.Errorf("event %d start %d not after event %d start %d", i, cur.StartSim, i-1, prev.StartSim)
		}
		gapSym := (float64(cur.StartSamp-prev.StartSamp))/s.SamplesPerSymbol - frameSym
		if gapSym < tl.MinGapSymbols-1 || gapSym > tl.MaxGapSymbols+1 {
			t.Errorf("gap before event %d is %.1f symbols, want within [%g, %g]", i, gapSym, tl.MinGapSymbols, tl.MaxGapSymbols)
		}
	}
	// Round-robin tag order, sequence numbers per tag.
	for i, ev := range s.Events {
		if ev.Tag != i%3 || ev.Seq != uint64(i/3) {
			t.Errorf("event %d: tag=%d seq=%d, want tag=%d seq=%d", i, ev.Tag, ev.Seq, i%3, i/3)
		}
		if len(ev.Want) != s.PayloadSymbols {
			t.Errorf("event %d: %d payload symbols, want %d", i, len(ev.Want), s.PayloadSymbols)
		}
	}
	// ModeFull renders both streams at the configured ratio.
	if s.CorrOversample == 0 || len(s.EnvC) < s.CorrOversample*(len(s.Env)-1) {
		t.Errorf("correlator stream %d samples for %d sampler samples (ratio %d)", len(s.EnvC), len(s.Env), s.CorrOversample)
	}
}

func TestTimelineOverlapSchedulesCollisions(t *testing.T) {
	ts := testTagSet(t, 2)
	s, err := ts.RenderTimeline(core.DefaultConfig(), TimelineConfig{FramesPerTag: 4, OverlapEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	collisions := 0
	for i, ev := range s.Events {
		if !ev.Collides {
			continue
		}
		collisions++
		if i == 0 {
			t.Error("first event cannot collide")
			continue
		}
		if ev.StartSim >= s.Events[i-1].StartSim+int(float64(ts.Params.SamplesPerSymbol(400e3))) {
			// Collider must start before the previous frame ends; previous
			// frame is ~44 symbols long, so starting within one symbol of
			// the previous start would be wrong too — just check it starts
			// before the previous frame's end.
			continue
		}
	}
	if collisions == 0 {
		t.Error("OverlapEvery=3 scheduled no collisions")
	}
}

func TestTimelineChunksCoverCapture(t *testing.T) {
	ts := testTagSet(t, 2)
	s, err := ts.RenderTimeline(core.DefaultConfig(), TimelineConfig{FramesPerTag: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 100, 137, 1 << 20} {
		var env, envC []float64
		for _, c := range s.Chunks(chunk) {
			env = append(env, c.Env...)
			envC = append(envC, c.EnvC...)
		}
		if len(env) != len(s.Env) || len(envC) != len(s.EnvC) {
			t.Fatalf("chunk=%d: reassembled %d/%d samples, want %d/%d", chunk, len(env), len(envC), len(s.Env), len(s.EnvC))
		}
		for i := range env {
			if env[i] != s.Env[i] {
				t.Fatalf("chunk=%d: Env[%d] diverged", chunk, i)
			}
		}
		for i := range envC {
			if envC[i] != s.EnvC[i] {
				t.Fatalf("chunk=%d: EnvC[%d] diverged", chunk, i)
			}
		}
	}
}

func TestTimelineSeqBaseAdvancesPayloads(t *testing.T) {
	ts := testTagSet(t, 2)
	epoch0, err := ts.RenderTimeline(core.DefaultConfig(), TimelineConfig{FramesPerTag: 2})
	if err != nil {
		t.Fatal(err)
	}
	epoch1, err := ts.RenderTimeline(core.DefaultConfig(), TimelineConfig{FramesPerTag: 2, SeqBase: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range epoch1.Events {
		if ev.Seq != epoch0.Events[i].Seq+2 {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, epoch0.Events[i].Seq+2)
		}
	}
	// Different sequence numbers must mean different payloads (fresh frames,
	// not an epoch-0 replay), and the payload of (tag, seq) must match what
	// Frame generates directly.
	same := 0
	for i, ev := range epoch1.Events {
		_, want, err := ts.Frame(ev.Tag, ev.Seq)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSymbols(ev.Want, want) {
			t.Errorf("event %d: scheduled payload differs from Frame(%d, %d)", i, ev.Tag, ev.Seq)
		}
		if equalSymbols(ev.Want, epoch0.Events[i].Want) {
			same++
		}
	}
	if same == len(epoch1.Events) {
		t.Error("SeqBase=2 replayed epoch 0's payloads verbatim")
	}
}

func TestTimelineRetransmitsAppendIdenticalPayloads(t *testing.T) {
	ts := testTagSet(t, 3)
	base, err := ts.RenderTimeline(core.DefaultConfig(), TimelineConfig{FramesPerTag: 2})
	if err != nil {
		t.Fatal(err)
	}
	rts := []Retransmit{{Tag: 1, Seq: 0}, {Tag: 2, Seq: 1}}
	s, err := ts.RenderTimeline(core.DefaultConfig(), TimelineConfig{
		FramesPerTag: 1, SeqBase: 2, Retransmits: rts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 3+len(rts) {
		t.Fatalf("scheduled %d events, want %d", len(s.Events), 3+len(rts))
	}
	for i, ev := range s.Events[:3] {
		if ev.Retransmitted {
			t.Errorf("regular event %d marked as retransmitted", i)
		}
	}
	for i, rt := range rts {
		ev := s.Events[3+i]
		if !ev.Retransmitted {
			t.Errorf("retransmit %d not marked as retransmitted", i)
		}
		if ev.Tag != rt.Tag || ev.Seq != rt.Seq {
			t.Errorf("retransmit %d scheduled as tag=%d seq=%d, want tag=%d seq=%d",
				i, ev.Tag, ev.Seq, rt.Tag, rt.Seq)
		}
		// The retransmitted frame must carry the original transmission's
		// payload — dedup at the gateway keys on it.
		orig := base.Events[int(rt.Seq)*3+rt.Tag]
		if orig.Tag != rt.Tag || orig.Seq != rt.Seq {
			t.Fatalf("test indexing wrong: got tag=%d seq=%d", orig.Tag, orig.Seq)
		}
		if !equalSymbols(ev.Want, orig.Want) {
			t.Errorf("retransmit %d payload differs from the original transmission", i)
		}
		if i == 0 && ev.StartSim <= s.Events[2].StartSim {
			t.Error("retransmissions must trail the regular schedule")
		}
	}
	// A retransmit for an unknown tag is refused.
	if _, err := ts.RenderTimeline(core.DefaultConfig(), TimelineConfig{
		FramesPerTag: 1, Retransmits: []Retransmit{{Tag: 99}},
	}); err == nil {
		t.Error("retransmit for unknown tag accepted")
	}
}

func TestSubsetTagSetKeepsPayloadStreams(t *testing.T) {
	full := testTagSet(t, 4)
	sub := &TagSet{Params: full.Params, Seed: full.Seed, Tags: []SimTag{full.Tags[1], full.Tags[3]}}
	for _, tag := range []int{1, 3} {
		_, wantFull, err := full.Frame(tag, 7)
		if err != nil {
			t.Fatal(err)
		}
		_, wantSub, err := sub.Frame(tag, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSymbols(wantFull, wantSub) {
			t.Errorf("tag %d payload depends on the tag's position in the set", tag)
		}
	}
	if _, _, err := sub.Frame(0, 0); err == nil {
		t.Error("subset accepted a frame for a tag it does not contain")
	}
	if sub.TagByID(3) == nil || sub.TagByID(0) != nil {
		t.Error("TagByID membership wrong")
	}
}

func TestFramePayloadDataIsRateIndependent(t *testing.T) {
	// A tag commanded to a new rate re-encodes the same buffered data: the
	// symbols at rate K must be the top K bits of the same per-(tag, seq)
	// data word stream. With SF7, K=1 symbols are therefore the K=2
	// symbols' top bit.
	k1 := testTagSet(t, 2)
	k2 := &TagSet{Params: k1.Params, Seed: k1.Seed, Tags: k1.Tags}
	k2.Params.K = 2
	for _, tag := range []int{0, 1} {
		_, w1, err := k1.Frame(tag, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, w2, err := k2.Frame(tag, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w1 {
			if w1[i] != w2[i]>>1 {
				t.Fatalf("tag %d symbol %d: K=1 value %d is not the top bit of K=2 value %d",
					tag, i, w1[i], w2[i])
			}
		}
	}
}

func equalSymbols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTimelineValidation(t *testing.T) {
	ts := testTagSet(t, 2)
	bad := []TimelineConfig{
		{},                                    // no frames
		{FramesPerTag: 1, MinGapSymbols: 0.5}, // gap floor below 1
		{FramesPerTag: 1, MinGapSymbols: 8, MaxGapSymbols: 4}, // inverted range
	}
	for i, tl := range bad {
		if _, err := ts.RenderTimeline(core.DefaultConfig(), tl); err == nil {
			t.Errorf("timeline config %d accepted, want error", i)
		}
	}
	// Mismatched LoRa parameters must be refused.
	cfg := core.DefaultConfig()
	cfg.Params.K = 3
	if _, err := ts.RenderTimeline(cfg, TimelineConfig{FramesPerTag: 1}); err == nil {
		t.Error("mismatched demod params accepted")
	}
}
