package mac

import (
	"fmt"

	"saiyan/internal/lora"
)

// Downlink command framing. Section 1 lists the feedback-loop operations
// Saiyan enables: asking for a packet retransmission, commanding a channel
// hop, adapting the data rate, and switching sensors on or off remotely.
// This file defines a compact on-air encoding for those commands so the
// gateway's control loop exchanges real payloads instead of ad-hoc
// integers.
//
// Wire format (bits, MSB first):
//
//	4  opcode
//	8  tag address (255 = broadcast)
//	8  argument
//	4  checksum (sum of the three fields' nibbles, mod 16)
//
// The 24 bits are packed into downlink symbols of K bits each.

// Opcode identifies a downlink command.
type Opcode int

// Downlink opcodes.
const (
	OpAck Opcode = iota + 1
	OpRetransmit
	OpHopChannel
	OpSetRate
	OpSensorOn
	OpSensorOff
	// OpRecalibrate tells a tag to rebuild its comparator threshold table
	// for the RSS encoded in the argument (-Arg dBm): the gateway issues it
	// when a session's measured SNR drifts away from the calibration anchor
	// (Section 4.1's per-distance table going stale as the tag moves).
	OpRecalibrate
)

// String names the opcode.
func (op Opcode) String() string {
	switch op {
	case OpAck:
		return "ack"
	case OpRetransmit:
		return "retransmit"
	case OpHopChannel:
		return "hop-channel"
	case OpSetRate:
		return "set-rate"
	case OpSensorOn:
		return "sensor-on"
	case OpSensorOff:
		return "sensor-off"
	case OpRecalibrate:
		return "recalibrate"
	}
	return "unknown"
}

// BroadcastAddr addresses every tag in range.
const BroadcastAddr = 255

// Command is one downlink instruction.
type Command struct {
	Op   Opcode
	Addr int // tag address, BroadcastAddr for all
	Arg  int // opcode-specific: sequence number, channel index, rate K...
}

// commandBits is the fixed frame width.
const commandBits = 24

// Validate checks field ranges.
func (c Command) Validate() error {
	if c.Op < OpAck || c.Op > OpRecalibrate {
		return fmt.Errorf("mac: invalid opcode %d", c.Op)
	}
	if c.Addr < 0 || c.Addr > 255 {
		return fmt.Errorf("mac: address %d outside [0, 255]", c.Addr)
	}
	if c.Arg < 0 || c.Arg > 255 {
		return fmt.Errorf("mac: argument %d outside [0, 255]", c.Arg)
	}
	return nil
}

// checksum is a 4-bit nibble sum over opcode, address, and argument.
func (c Command) checksum() int {
	sum := int(c.Op)
	sum += c.Addr>>4 + c.Addr&0xF
	sum += c.Arg>>4 + c.Arg&0xF
	return sum & 0xF
}

// Bits serializes the command to its 24-bit representation, MSB first.
func (c Command) Bits() ([]int, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	word := int(c.Op)<<20 | c.Addr<<12 | c.Arg<<4 | c.checksum()
	bits := make([]int, commandBits)
	for i := 0; i < commandBits; i++ {
		bits[i] = (word >> (commandBits - 1 - i)) & 1
	}
	return bits, nil
}

// ParseCommand reconstructs a command from bits, verifying the checksum.
func ParseCommand(bits []int) (Command, error) {
	if len(bits) < commandBits {
		return Command{}, fmt.Errorf("mac: command needs %d bits, got %d", commandBits, len(bits))
	}
	word := 0
	for i := 0; i < commandBits; i++ {
		word = word<<1 | bits[i]&1
	}
	c := Command{
		Op:   Opcode(word >> 20 & 0xF),
		Addr: word >> 12 & 0xFF,
		Arg:  word >> 4 & 0xFF,
	}
	if err := c.Validate(); err != nil {
		return Command{}, fmt.Errorf("mac: corrupt command: %w", err)
	}
	if got := word & 0xF; got != c.checksum() {
		return Command{}, fmt.Errorf("mac: command checksum mismatch (got %x, want %x)", got, c.checksum())
	}
	return c, nil
}

// ToFrame packs the command into a downlink LoRa frame (Gray-coded
// symbols).
//
//lint:allow unused with CommandFromSymbols, the tag-side PHY codec the command-over-PHY tests check the demodulator's output against
func (c Command) ToFrame(p lora.Params) (*lora.Frame, error) {
	bits, err := c.Bits()
	if err != nil {
		return nil, err
	}
	data := lora.SymbolsFromBits(p, bits)
	return lora.NewFrame(p, lora.EncodeSymbols(true, data))
}

// CommandFromSymbols decodes a received symbol sequence back into a
// command.
//
//lint:allow unused the reference decoder TestCommandOverPHYEndToEnd checks the demodulated symbols with
func CommandFromSymbols(p lora.Params, symbols []int) (Command, error) {
	data := lora.DecodeSymbols(true, symbols)
	frame := lora.Frame{Params: p, Payload: data}
	return ParseCommand(frame.PayloadBits())
}
