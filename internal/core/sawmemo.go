package core

import (
	"math"
	"math/bits"

	"saiyan/internal/analog"
	"saiyan/internal/dsp"
)

// sawMemo caches SAW amplitude gains for one demodulator. A chirp sweeps
// the same few frequency offsets over and over — every symbol of a frame
// is one of 2^K chirps sampled on the same grid — so rendering a capture
// calls SAWFilter.Gain (a math.Pow) millions of times for a few thousand
// distinct arguments. The memo keys on the exact float64 bits of the
// offset, so a hit returns the very value Gain would have computed.
//
// The table is open-addressed with linear probing, sized once on first
// use and never grown: a render costs at most one allocation however many
// offsets it sees. Once half the slots are taken, further misses are
// computed without being stored. The memo is tied to one SAW filter and
// drift; sync clears it when either changes.
type sawMemo struct {
	saw     *analog.SAWFilter
	drift   uint64 // math.Float64bits(saw.Drift()) when the memo was filled
	carrier float64
	slots   []sawSlot
	shift   uint // 64 - log2(len(slots))
	used    int
	size    int // slot count to allocate on first use (a power of two)
}

type sawSlot struct {
	key  uint64 // math.Float64bits of the offset; emptySlot when free
	gain float64
}

// emptySlot marks a free slot. It is a NaN bit pattern, and NaN offsets
// bypass the memo, so no real key collides with it.
const emptySlot = ^uint64(0)

// maxSAWMemoSlots caps the table at 1 MiB.
const maxSAWMemoSlots = 1 << 16

// newSAWMemo sizes a memo for trajectories of the configured PHY: the
// preamble chirp, the 2^K payload chirps and the silent sync, each sampled
// spbSim times per symbol, with the table kept at most half full.
func newSAWMemo(cfg Config, spbSim int) sawMemo {
	distinct := (cfg.Params.AlphabetSize() + 1) * spbSim
	return sawMemo{
		carrier: cfg.Params.CarrierHz,
		size:    min(max(dsp.NextPow2(2*distinct), 256), maxSAWMemoSlots),
	}
}

// sync binds the memo to saw at its current drift, clearing every entry
// if either changed since the last render (SetDrift moves the response).
func (m *sawMemo) sync(saw *analog.SAWFilter) {
	drift := math.Float64bits(saw.Drift())
	if m.slots != nil && m.saw == saw && m.drift == drift {
		return
	}
	if m.slots == nil {
		m.slots = make([]sawSlot, m.size)
		m.shift = uint(64 - bits.TrailingZeros(uint(m.size)))
	}
	for i := range m.slots {
		m.slots[i].key = emptySlot
	}
	m.saw, m.drift, m.used = saw, drift, 0
}

// gain returns saw.Gain(carrier + f) for the filter bound by sync.
func (m *sawMemo) gain(f float64) float64 {
	if f != f {
		return m.saw.Gain(m.carrier + f)
	}
	key := math.Float64bits(f)
	mask := len(m.slots) - 1
	for i := int((key * 0x9e3779b97f4a7c15) >> m.shift); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == key {
			return s.gain
		}
		if s.key == emptySlot {
			g := m.saw.Gain(m.carrier + f)
			if 2*(m.used+1) <= len(m.slots) {
				s.key, s.gain = key, g
				m.used++
			}
			return g
		}
	}
}
