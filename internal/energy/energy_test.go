package energy

import (
	"math"
	"testing"
	"time"
)

func TestPCBLedgerMatchesTable2(t *testing.T) {
	l := PCBLedger()
	if got := l.TotalPowerUW(); math.Abs(got-369.35) > 0.01 {
		t.Errorf("PCB total power = %g uW, want 369.35 (Table 2)", got)
	}
	if got := l.TotalCostUSD(); math.Abs(got-27.16) > 0.01 {
		t.Errorf("PCB total cost = %g USD, want ~27.2 (Table 2)", got)
	}
	// Section 5.2.4: LNA 67.3 %, oscillator 23.5 % of total power.
	if got := l.Share("LNA"); math.Abs(got-0.673) > 0.001 {
		t.Errorf("LNA share = %g, want 0.673", got)
	}
	if got := l.Share("OSC Clock"); math.Abs(got-0.235) > 0.001 {
		t.Errorf("OSC share = %g, want 0.235", got)
	}
	if l.Share("Flux Capacitor") != 0 {
		t.Error("unknown component should have zero share")
	}
}

func TestASICLedgerMatchesSection43(t *testing.T) {
	l := ASICLedger()
	if got := l.TotalPowerUW(); math.Abs(got-93.2) > 0.01 {
		t.Errorf("ASIC total = %g uW, want 93.2", got)
	}
	// Paper: ASIC cuts power by 74.8 % relative to the PCB.
	if got := ASICReduction(); math.Abs(got-0.748) > 0.005 {
		t.Errorf("ASIC reduction = %g, want ~0.748", got)
	}
}

func TestHarvesterPaperAnchors(t *testing.T) {
	h := DefaultHarvester()
	// ~39.4 uW average harvest rate.
	if got := h.AveragePowerUW(); math.Abs(got-39.37) > 0.1 {
		t.Errorf("average harvest = %g uW, want ~39.4", got)
	}
	// Section 1: a standard LoRa receiver (40 mW for a 1 s demodulation)
	// needs ~17 minutes of harvesting.
	wait := h.TimeToHarvest(StandardLoRaReceiverUW, time.Second)
	if wait < 16*time.Minute || wait > 18*time.Minute {
		t.Errorf("standard receiver harvest wait = %v, want ~17 min", wait)
	}
	// Saiyan ASIC: a couple of seconds.
	saiyan := h.TimeToHarvest(ASICLedger().TotalPowerUW(), time.Second)
	if saiyan > 5*time.Second {
		t.Errorf("Saiyan harvest wait = %v, want a few seconds", saiyan)
	}
	// The ratio is the headline energy win.
	ratio := float64(wait) / float64(saiyan)
	if ratio < 400 || ratio > 450 {
		t.Errorf("harvest-time ratio = %g, want ~429 (40 mW / 93.2 uW)", ratio)
	}
}

func TestHarvesterSustainability(t *testing.T) {
	h := DefaultHarvester()
	if StandardLoRaReceiverUW <= h.AveragePowerUW() {
		t.Error("a 40 mW receiver must not be sustainable on the harvester")
	}
	if MCUApollo2UW > h.AveragePowerUW() {
		t.Error("the Apollo2 MCU should be sustainable")
	}
	broken := Harvester{}
	if broken.AveragePowerUW() != 0 {
		t.Error("zero harvester should harvest nothing")
	}
	if w := broken.TimeToHarvest(1, time.Second); w < time.Duration(1<<62) {
		t.Errorf("zero harvester wait = %v, want effectively infinite", w)
	}
}

func TestConstantsSanity(t *testing.T) {
	if ASICActiveAreaMM2 != 0.217 {
		t.Error("ASIC area constant drifted from Section 4.3")
	}
}

func TestMCUBudgetReproducesTable2Entry(t *testing.T) {
	m := DefaultMCUBudget()
	// A datapath that saturates the clock for the whole span, duty-cycled
	// to 1 %, is by construction the Table 2 MCU entry.
	span := time.Second
	cycles := uint64(m.ClockHz)
	if got := m.AveragePowerUW(cycles, span); math.Abs(got-MCUApollo2UW/0.01) > 1e-9 {
		t.Errorf("full-load active power = %g uW, want %g", got, MCUApollo2UW/0.01)
	}
	if got := m.DutyCycledPowerUW(cycles, span, 0.01); math.Abs(got-MCUApollo2UW) > 1e-9 {
		t.Errorf("duty-cycled full load = %g uW, want the Table 2 entry %g", got, MCUApollo2UW)
	}
	// Half load costs half the power; real-time holds up to exactly 1x.
	if got := m.DutyCycledPowerUW(cycles/2, span, 0.01); math.Abs(got-MCUApollo2UW/2) > 1e-6 {
		t.Errorf("half load = %g uW, want %g", got, MCUApollo2UW/2)
	}
	if m.LoadFraction(cycles, span) > 1 || m.LoadFraction(2*cycles, span) <= 1 {
		t.Error("real-time boundary misplaced")
	}
	if got := m.BusySeconds(cycles); math.Abs(got-1) > 1e-12 {
		t.Errorf("BusySeconds(clock) = %g, want 1", got)
	}
}

func TestMCUBudgetDegenerate(t *testing.T) {
	var zero MCUBudget
	if zero.BusySeconds(1e9) != 0 || zero.AveragePowerUW(1e9, time.Second) != 0 {
		t.Error("zero-clock budget must price everything at zero rather than dividing by zero")
	}
	m := DefaultMCUBudget()
	if m.LoadFraction(123, 0) != 0 {
		t.Error("zero span must not divide by zero")
	}
}
