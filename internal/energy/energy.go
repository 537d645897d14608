// Package energy reproduces the paper's power and cost accounting: the
// per-component Table 2 ledger for the PCB prototype (under 1 % duty
// cycling), the Section 4.3 ASIC simulation numbers, the LTC3105 energy
// harvester model, and the motivating comparison against a standard LoRa
// receiver (Section 1: >40 mW, or a 17-minute harvest per demodulation).
package energy

import (
	"time"
)

// Component is one entry of the power/cost ledger.
type Component struct {
	Name    string
	PowerUW float64 // average power in microwatts
	CostUSD float64
}

// Ledger is a named collection of components.
type Ledger struct {
	Name       string
	DutyCycle  float64 // the duty cycle the power numbers assume
	Components []Component
}

// PCBLedger returns Table 2 exactly: per-component energy (microwatts,
// under 1 % duty cycling as in LoRa [22]) and cost (USD) of the Saiyan
// prototype.
func PCBLedger() Ledger {
	return Ledger{
		Name:      "Saiyan PCB prototype",
		DutyCycle: 0.01,
		Components: []Component{
			{Name: "SAW", PowerUW: 0, CostUSD: 3.87},
			{Name: "LNA", PowerUW: 248.5, CostUSD: 4.15},
			{Name: "OSC Clock", PowerUW: 86.8, CostUSD: 1.25},
			{Name: "Envelope Detector", PowerUW: 0, CostUSD: 1.20},
			{Name: "Comparator", PowerUW: 14.45, CostUSD: 1.26},
			{Name: "MCU", PowerUW: 19.6, CostUSD: 15.43},
		},
	}
}

// ASICLedger returns the Section 4.3 TSMC 65-nm simulation: 93.2 uW total,
// dominated by the LNA (68.4) and oscillator (22.8) with 2 uW of digital
// logic. Cost collapses after fabrication, so it is reported as zero.
func ASICLedger() Ledger {
	return Ledger{
		Name:      "Saiyan ASIC (TSMC 65 nm simulation)",
		DutyCycle: 0.01,
		Components: []Component{
			{Name: "LNA", PowerUW: 68.4},
			{Name: "Oscillator", PowerUW: 22.8},
			{Name: "Digital", PowerUW: 2.0},
		},
	}
}

// ASICActiveAreaMM2 is the simulated on-chip IC area (Section 4.3).
const ASICActiveAreaMM2 = 0.217

// StandardLoRaReceiverUW is the demodulation power of a commercial LoRa
// receiver (down-conversion + 2xBW ADC + FFT), the Section 1 motivation.
const StandardLoRaReceiverUW = 40_000.0

// MCUApollo2UW is the Apollo2's draw while preparing a packet
// retransmission (Section 4.3).
const MCUApollo2UW = 19.6

// TotalPowerUW sums the ledger.
func (l Ledger) TotalPowerUW() float64 {
	var sum float64
	for _, c := range l.Components {
		sum += c.PowerUW
	}
	return sum
}

// TotalCostUSD sums the component costs.
func (l Ledger) TotalCostUSD() float64 {
	var sum float64
	for _, c := range l.Components {
		sum += c.CostUSD
	}
	return sum
}

// Share returns the fraction of total power a component consumes (by name),
// or 0 if absent. Section 5.2.4 quotes 67.3 % for the LNA and 23.5 % for
// the oscillator.
func (l Ledger) Share(name string) float64 {
	total := l.TotalPowerUW()
	if total == 0 {
		return 0
	}
	for _, c := range l.Components {
		if c.Name == name {
			return c.PowerUW / total
		}
	}
	return 0
}

// ASICReduction returns the fractional power saving of the ASIC over the
// PCB prototype (the paper quotes 74.8 %).
func ASICReduction() float64 {
	pcb := PCBLedger().TotalPowerUW()
	asic := ASICLedger().TotalPowerUW()
	return (pcb - asic) / pcb
}

// MCUBudget converts the fixed-point datapath's cycle ledger (internal/fxp)
// into power, so a simulated decode can be priced against the Table 2 MCU
// entry. The ledger reports the Apollo2 at MCUApollo2UW = 19.6 uW under 1 %
// duty cycling, i.e. an active draw of 1.96 mW while its clock runs.
type MCUBudget struct {
	// ClockHz is the MCU core clock the cycle counts are divided by.
	ClockHz float64
	// ActiveUW is the draw while the clock runs demodulation work.
	ActiveUW float64
}

// DefaultMCUBudget returns the prototype's Apollo2 at its 48 MHz maximum
// clock with the active draw implied by Table 2 (19.6 uW at 1 % duty).
func DefaultMCUBudget() MCUBudget {
	return MCUBudget{ClockHz: 48e6, ActiveUW: MCUApollo2UW / 0.01}
}

// BusySeconds is how long the clock runs to retire the counted cycles.
func (m MCUBudget) BusySeconds(cycles uint64) float64 {
	if m.ClockHz <= 0 {
		return 0
	}
	return float64(cycles) / m.ClockHz
}

// LoadFraction is the fraction of the span the MCU spends clocking the
// counted cycles. A value above 1 means the datapath cannot keep up with
// the air in real time.
func (m MCUBudget) LoadFraction(cycles uint64, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return m.BusySeconds(cycles) / span.Seconds()
}

// AveragePowerUW is the mean draw attributable to the datapath while
// receiving: active power scaled by the load fraction (the clock gates off
// between symbols, as the prototype's firmware sleeps between samples).
func (m MCUBudget) AveragePowerUW(cycles uint64, span time.Duration) float64 {
	return m.ActiveUW * m.LoadFraction(cycles, span)
}

// DutyCycledPowerUW rescales the receive-time draw to a listening duty
// cycle — the accounting Table 2 uses (1 % duty, duty = 0.01). Comparing
// the result against the ledger's MCU entry answers the paper's question
// directly: does the digital decode fit in the microwatt budget?
func (m MCUBudget) DutyCycledPowerUW(cycles uint64, span time.Duration, duty float64) float64 {
	return m.AveragePowerUW(cycles, span) * duty
}

// Harvester models the palm-sized photovoltaic panel with the LTC3105
// step-up converter: it "generates 1 mW power every 25.4 seconds in a
// bright day" (Sections 1 and 4.1), i.e. it banks about 1 mJ per 25.4 s.
type Harvester struct {
	// EnergyPerCycleJ is the energy banked per harvest cycle.
	EnergyPerCycleJ float64
	// CycleSeconds is the harvest cycle duration.
	CycleSeconds float64
}

// DefaultHarvester returns the paper's bright-day numbers.
func DefaultHarvester() Harvester {
	return Harvester{EnergyPerCycleJ: 1e-3, CycleSeconds: 25.4}
}

// AveragePowerUW is the mean harvest rate.
func (h Harvester) AveragePowerUW() float64 {
	if h.CycleSeconds <= 0 {
		return 0
	}
	return h.EnergyPerCycleJ / h.CycleSeconds * 1e6
}

// TimeToHarvest returns how long the harvester needs to bank the energy for
// running a load of loadUW for the given duration.
func (h Harvester) TimeToHarvest(loadUW float64, dur time.Duration) time.Duration {
	if h.AveragePowerUW() <= 0 {
		return time.Duration(1<<63 - 1)
	}
	energyUJ := loadUW * dur.Seconds()
	seconds := energyUJ / h.AveragePowerUW()
	return time.Duration(seconds * float64(time.Second))
}
