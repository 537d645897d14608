package mac

import (
	"testing"

	"saiyan/internal/lora"
)

func TestCommandBitsRoundTrip(t *testing.T) {
	cases := []Command{
		{Op: OpRetransmit, Addr: 7, Arg: 42},
		{Op: OpHopChannel, Addr: BroadcastAddr, Arg: 3},
		{Op: OpSetRate, Addr: 0, Arg: 5},
		{Op: OpSensorOff, Addr: 200, Arg: 0},
	}
	for _, c := range cases {
		bits, err := c.Bits()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if len(bits) != 24 {
			t.Fatalf("%+v: %d bits, want 24", c, len(bits))
		}
		back, err := ParseCommand(bits)
		if err != nil {
			t.Fatalf("%+v: parse: %v", c, err)
		}
		if back != c {
			t.Errorf("round trip %+v -> %+v", c, back)
		}
	}
}

func TestCommandChecksumCatchesCorruption(t *testing.T) {
	c := Command{Op: OpRetransmit, Addr: 12, Arg: 34}
	bits, err := c.Bits()
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for i := range bits {
		corrupt := append([]int(nil), bits...)
		corrupt[i] ^= 1
		if _, err := ParseCommand(corrupt); err != nil {
			caught++
		}
	}
	// A 4-bit nibble-sum checksum will not catch every single-bit flip
	// (flips in high nibble bits can alias), but it must catch most.
	if caught < len(bits)*3/4 {
		t.Errorf("checksum caught only %d/%d single-bit flips", caught, len(bits))
	}
}

func TestCommandValidation(t *testing.T) {
	if _, err := (Command{Op: 0, Addr: 1, Arg: 1}).Bits(); err == nil {
		t.Error("zero opcode accepted")
	}
	if _, err := (Command{Op: OpAck, Addr: 999, Arg: 1}).Bits(); err == nil {
		t.Error("oversized address accepted")
	}
	if _, err := (Command{Op: OpAck, Addr: 1, Arg: -2}).Bits(); err == nil {
		t.Error("negative argument accepted")
	}
	if _, err := ParseCommand([]int{1, 0, 1}); err == nil {
		t.Error("short bit slice accepted")
	}
}

func TestCommandToFrameRoundTrip(t *testing.T) {
	p := lora.DefaultParams()
	p.K = 3
	cmd := Command{Op: OpHopChannel, Addr: 9, Arg: 2}
	frame, err := cmd.ToFrame(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := CommandFromSymbols(p, frame.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if back != cmd {
		t.Errorf("frame round trip %+v -> %+v", cmd, back)
	}
}

func TestCommandKindAndNames(t *testing.T) {
	for op := OpAck; op <= OpSensorOff; op++ {
		if op.String() == "unknown" {
			t.Errorf("opcode %d unnamed", op)
		}
	}
	if Opcode(99).String() != "unknown" {
		t.Error("unknown opcode should stringify as unknown")
	}
}
