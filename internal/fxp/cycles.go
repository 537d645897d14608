package fxp

// OpCounts is the per-operation ledger a decode accumulates: how many of
// each primitive the integer datapath executed. The counts are exact and
// deterministic for a given input, so two runs of the same capture produce
// identical ledgers regardless of worker count — the cycle budget is part
// of the decode's reproducible output, not a wall-clock measurement.
type OpCounts struct {
	Load uint64 // sample/template word fetches
	Add  uint64 // additions and subtractions (including wide accumulators)
	Mul  uint64 // multiplies outside MAC chains (including widening 64x64)
	MAC  uint64 // fused multiply-accumulate steps
	Cmp  uint64 // data-dependent compares and branches
	Sqrt uint64 // LUT+Newton integer square roots
	Div  uint64 // integer divisions (Newton's sqrt refinement steps)
}

// CycleModel prices each operation class in MCU cycles. The zero value is
// invalid; start from DefaultCycleModel.
type CycleModel struct {
	Load uint64
	Add  uint64
	Mul  uint64
	MAC  uint64
	Cmp  uint64
	Sqrt uint64
	Div  uint64
}

// DefaultCycleModel returns Cortex-M4-class timings, the core inside the
// prototype's Apollo2: single-cycle ALU and MAC, two-cycle loads from SRAM,
// a ~12-cycle hardware divider, and the LUT+Newton square root costed at
// its two division-dominated refinement steps.
func DefaultCycleModel() CycleModel {
	return CycleModel{Load: 2, Add: 1, Mul: 1, MAC: 1, Cmp: 1, Sqrt: 26, Div: 12}
}

// Cycles converts an operation ledger into a cycle count.
func (m CycleModel) Cycles(o OpCounts) uint64 {
	return o.Load*m.Load + o.Add*m.Add + o.Mul*m.Mul + o.MAC*m.MAC +
		o.Cmp*m.Cmp + o.Sqrt*m.Sqrt + o.Div*m.Div
}

// isZero reports whether the model is the (invalid) zero value, so
// constructors can substitute the default.
func (m CycleModel) isZero() bool { return m == CycleModel{} }
