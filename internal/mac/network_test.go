package mac

import (
	"testing"

	"saiyan/internal/dsp"
	"saiyan/internal/lora"
)

// tagByAddr finds a tag of n by address.
func tagByAddr(n *Network, addr int) *Tag {
	for _, t := range n.Tags {
		if t.Addr == addr {
			return t
		}
	}
	return nil
}

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

func TestNetworkSetupValidation(t *testing.T) {
	rng := dsp.NewRand(1, 1)
	if _, err := NewNetwork(0, rng); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := NewNetwork(4, nil); err == nil {
		t.Error("nil rng accepted")
	}
	n, err := NewNetwork(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddTag(BroadcastAddr, 1, 1); err == nil {
		t.Error("broadcast address registered as a tag")
	}
	if _, err := n.AddTag(3, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddTag(3, 1, 1); err == nil {
		t.Error("duplicate address accepted")
	}
}

func TestNetworkFeedbackLoopLiftsDelivery(t *testing.T) {
	run := func(downPRR float64) float64 {
		rng := dsp.NewRand(7, uint64(downPRR*100))
		n, err := NewNetwork(64, rng) // plenty of slots: isolate channel loss
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := n.AddTag(i, 0.5, downPRR); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 400; r++ {
			n.RunRound(3)
		}
		return n.DeliveryRate()
	}
	withFeedback := run(1.0)
	withoutFeedback := run(0.0)
	if withoutFeedback > 0.56 {
		t.Errorf("no-feedback delivery = %g, want ~0.5", withoutFeedback)
	}
	if withFeedback < withoutFeedback+0.3 {
		t.Errorf("feedback should lift delivery: %g vs %g", withFeedback, withoutFeedback)
	}
}

func TestNetworkCollisionsHurt(t *testing.T) {
	rng := dsp.NewRand(9, 9)
	crowded, err := NewNetwork(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := crowded.AddTag(i, 1, 0); err != nil { // perfect links, no feedback
			t.Fatal(err)
		}
	}
	var collisions, transmitted int
	for r := 0; r < 200; r++ {
		res := crowded.RunRound(0)
		collisions += res.Collided
		transmitted += res.Transmitted
	}
	if collisions == 0 {
		t.Fatal("12 tags over 4 slots never collided")
	}
	if rate := crowded.DeliveryRate(); rate > 0.5 {
		t.Errorf("crowded delivery rate = %g, want heavy collision losses", rate)
	}
}

func TestNetworkBroadcastCommands(t *testing.T) {
	rng := dsp.NewRand(11, 11)
	n, err := NewNetwork(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := n.AddTag(i, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	acted, err := n.Broadcast(Command{Op: OpSensorOff, Addr: BroadcastAddr})
	if err != nil {
		t.Fatal(err)
	}
	if acted != 5 {
		t.Errorf("broadcast reached %d tags, want 5", acted)
	}
	res := n.RunRound(0)
	if res.Transmitted != 0 {
		t.Errorf("tags transmitted with sensors off: %d", res.Transmitted)
	}
	// Unicast wake-up of one tag.
	acted, err = n.Broadcast(Command{Op: OpSensorOn, Addr: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acted != 1 {
		t.Errorf("unicast reached %d tags, want 1", acted)
	}
	if res := n.RunRound(0); res.Transmitted != 1 {
		t.Errorf("transmitting tags = %d, want 1", res.Transmitted)
	}
	// Rate change.
	if _, err := n.Broadcast(Command{Op: OpSetRate, Addr: 2, Arg: 4}); err != nil {
		t.Fatal(err)
	}
	if got := tagByAddr(n, 2).RateK; got != 4 {
		t.Errorf("tag rate = %d, want 4", got)
	}
	// Invalid command surfaces an error.
	if _, err := n.Broadcast(Command{Op: 0, Addr: BroadcastAddr}); err == nil {
		t.Error("invalid broadcast accepted")
	}
}

func TestNetworkDeliveryRateEmpty(t *testing.T) {
	rng := dsp.NewRand(13, 13)
	n, _ := NewNetwork(4, rng)
	if n.DeliveryRate() != 1 {
		t.Error("empty network should report perfect delivery")
	}
}
