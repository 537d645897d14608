package main

import (
	"bytes"
	"strings"
	"testing"

	"saiyan/internal/pins"
)

// TestWaveOutputPinned holds `saiyan wave` byte for byte: its CSV on
// stdout and its summary on stderr for five flag sets that cover every
// wave, every demodulator mode, noise on and off, and a non-default PHY.
// The pins were taken from the standalone waveform tool this subcommand
// replaced.
func TestWaveOutputPinned(t *testing.T) {
	cases := []struct{ args, stdout, stderr string }{
		{"-wave saw", "wave/saw.stdout", "wave/saw.stderr"},
		{"-wave symbol -symbol 2 -k 2", "wave/symbol-k2.stdout", "wave/symbol-k2.stderr"},
		{"-wave frame -k 2", "wave/frame-k2.stdout", "wave/frame-k2.stderr"},
		{"-wave symbol -symbol 5 -k 3 -mode full -seed 9 -dist 80", "wave/symbol-k3-full.stdout", "wave/symbol-k3-full.stderr"},
		{"-wave frame -k 1 -mode shift -seed 3 -sf 8 -bw 250", "wave/frame-k1-shift-sf8.stdout", "wave/frame-k1-shift-sf8.stderr"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if err := dumpWave(strings.Fields(tc.args), &stdout, &stderr); err != nil {
			t.Fatalf("saiyan wave %s: %v", tc.args, err)
		}
		pins.Check(t, tc.stdout, stdout.Bytes())
		pins.Check(t, tc.stderr, stderr.Bytes())
	}
}
