package radio

import (
	"math"
	"testing"
)

func TestPathLossMonotone(t *testing.T) {
	lb := DefaultLinkBudget()
	prev := -1.0
	for d := 1.0; d <= 1000; d *= 1.5 {
		pl := lb.PathLossDB(d)
		if pl <= prev {
			t.Fatalf("path loss not monotone at %g m: %g <= %g", d, pl, prev)
		}
		prev = pl
	}
}

func TestPathLossClampsBelowReference(t *testing.T) {
	lb := DefaultLinkBudget()
	if lb.PathLossDB(0.1) != lb.PathLossDB(1) {
		t.Error("sub-reference distances should clamp to the 1 m loss")
	}
}

func TestRefLossMatchesFriis(t *testing.T) {
	// Free-space loss at 1 m, 433.5 MHz is ~25.2 dB.
	lb := DefaultLinkBudget()
	if got := lb.refLossDB(); math.Abs(got-25.2) > 0.3 {
		t.Errorf("1 m reference loss = %g dB, want ~25.2", got)
	}
}

func TestWallLossAdds(t *testing.T) {
	lb := DefaultLinkBudget()
	lb.Env = Indoor
	base := lb.PathLossDB(10)
	lb.Walls = 2
	if got := lb.PathLossDB(10); math.Abs(got-base-2*WallLossDB) > 1e-9 {
		t.Errorf("two walls add %g dB, want %g", got-base, 2*WallLossDB)
	}
}

func TestNoiseFloor500kHz(t *testing.T) {
	// -174 + 10log10(500k) + 6 = -111.0 dBm.
	lb := DefaultLinkBudget()
	if got := lb.NoiseFloorDBm(500e3); math.Abs(got-(-111.0)) > 0.1 {
		t.Errorf("noise floor = %g dBm, want ~-111", got)
	}
	if !math.IsInf(lb.NoiseFloorDBm(0), -1) {
		t.Error("zero bandwidth should be -Inf")
	}
}

func TestSensitivityCalibration(t *testing.T) {
	// DESIGN.md: -85.8 dBm (the paper's measured sensitivity) should land
	// near 180 m outdoors with the calibrated exponent.
	lb := DefaultLinkBudget()
	if hi, lo := lb.RSSDBm(150), lb.RSSDBm(220); hi < -85.8 || lo > -85.8 {
		t.Errorf("RSS over [150, 220] m = [%g, %g] dBm, want it to bracket -85.8", hi, lo)
	}
	// And an 11 dB gain should roughly double range (the paper's
	// cyclic-frequency-shifting result): stretching 180 m by 1.8x loses
	// less than 11 dB, by 2.2x more.
	if lo, hi := lb.RSSDBm(180)-lb.RSSDBm(1.8*180), lb.RSSDBm(180)-lb.RSSDBm(2.2*180); lo > 11 || hi < 11 {
		t.Errorf("path loss over 1.8x/2.2x range = %g/%g dB, want 11 dB between", lo, hi)
	}
}

func TestBackscatterWeakerThanOneHop(t *testing.T) {
	b := DefaultBackscatterLink()
	oneHop := b.Forward.RSSDBm(20)
	twoHop := b.RSSDBm(10, 90)
	if twoHop >= oneHop {
		t.Errorf("backscatter RSS %g not below one-hop %g", twoHop, oneHop)
	}
	// Moving the tag away from the Tx must weaken the uplink.
	if b.RSSDBm(20, 80) >= b.RSSDBm(1, 99) {
		t.Error("uplink should weaken as the tag leaves the transmitter")
	}
}

func TestEnvironmentString(t *testing.T) {
	if Outdoor.String() != "outdoor" || Indoor.String() != "indoor" {
		t.Error("environment names wrong")
	}
	lb := DefaultLinkBudget()
	if lb.String() == "" {
		t.Error("empty link budget description")
	}
}

func TestDayProfileAnchors(t *testing.T) {
	d := PaperDayProfile()
	if got := d.TempAt(8); math.Abs(got-(-8.6)) > 0.01 {
		t.Errorf("8 a.m. temp = %g, want -8.6", got)
	}
	if got := d.TempAt(14); math.Abs(got-1.6) > 0.01 {
		t.Errorf("2 p.m. temp = %g, want 1.6", got)
	}
	hrs := d.Hours()
	if len(hrs) != 7 || hrs[0] != 8 || hrs[len(hrs)-1] != 20 {
		t.Errorf("hours = %v, want 8..20 step 2", hrs)
	}
}

func TestSAWDriftSign(t *testing.T) {
	// Negative tempco: hotter -> lower frequency.
	if SAWDriftHz(434e6, 35) >= 0 {
		t.Error("drift above reference temperature should be negative")
	}
	if SAWDriftHz(434e6, ReferenceTempC) != 0 {
		t.Error("drift at reference temperature should be zero")
	}
	// Magnitude sanity: -8.6 degC is ~34 K below reference; at the
	// temperature-compensated -6 ppm/K that is ~88 kHz.
	drift := SAWDriftHz(434e6, -8.6)
	if drift < 50e3 || drift > 150e3 {
		t.Errorf("drift at -8.6C = %g Hz, want ~88 kHz", drift)
	}
}

func TestJammerOnOffChannel(t *testing.T) {
	j := DefaultJammer()
	on := j.InterferenceDBm(433.0e6)
	off := j.InterferenceDBm(434.5e6)
	if on <= off+100 {
		t.Errorf("co-channel interference %g not far above off-channel %g", on, off)
	}
	lb := DefaultLinkBudget()
	sinrJammed := j.SINRDB(-70, 433.0e6, 500e3, lb)
	sinrClear := j.SINRDB(-70, 434.5e6, 500e3, lb)
	if sinrClear-sinrJammed < 20 {
		t.Errorf("hopping gain = %g dB, want > 20", sinrClear-sinrJammed)
	}
}
