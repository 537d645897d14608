package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestWaveOutputPinned holds `saiyan wave` byte for byte: the SHA-256 of
// its CSV on stdout and of its summary on stderr for five flag sets that
// cover every wave, every demodulator mode, noise on and off, and a
// non-default PHY. The hashes were taken from the standalone waveform tool
// this subcommand replaced. A change that alters a waveform on purpose sets
// the new hashes here and says so.
func TestWaveOutputPinned(t *testing.T) {
	cases := []struct{ args, stdout, stderr string }{
		{"-wave saw",
			"27718fcedd3d0c766280658cbdd7fc205c6278bc8f2809634a4c42a3fdb8aa28",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"-wave symbol -symbol 2 -k 2",
			"22911fbd93bf6b3531c4172396c7f848766120c9815e416a7eb7a13c82126cff",
			"acf784ed1e69f13c26898a96cc5528d83d56bb7996808a66f0424fbf81334157"},
		{"-wave frame -k 2",
			"b3f5a9f971dda56c5dba04d20ef74ab6223bbd4f5674c87f92ea861f3466afe4",
			"3b4aa0fdfacdf3f970e9e8ab40977095aa93d6c072ed77d02198a0cb601cfaf8"},
		{"-wave symbol -symbol 5 -k 3 -mode full -seed 9 -dist 80",
			"6b529c28d4bfc3680db0e55da99744bae94982470e692746c461dd173e23abcd",
			"e8041c9c720271ad4918f837016157927dd64066e7a0b47bab3779f213fe88a6"},
		{"-wave frame -k 1 -mode shift -seed 3 -sf 8 -bw 250",
			"9365443a98e9251555ba319ea529cefaa54b8a626a88fc5452cfd8af887a787b",
			"b72a01dc8cba111fcbd4003ebe6d1f88c4f1a5c527fa3212cd6bd62025fed571"},
	}
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if err := dumpWave(strings.Fields(tc.args), &stdout, &stderr); err != nil {
			t.Fatalf("saiyan wave %s: %v", tc.args, err)
		}
		if got := hash(stdout.Bytes()); got != tc.stdout {
			t.Errorf("saiyan wave %s: stdout hash = %s, want %s", tc.args, got, tc.stdout)
		}
		if got := hash(stderr.Bytes()); got != tc.stderr {
			t.Errorf("saiyan wave %s: stderr hash = %s, want %s (%q)", tc.args, got, tc.stderr, stderr.String())
		}
	}
}
