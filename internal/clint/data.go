// Data-plane framing for the live switch runtime (cmd/lcfd), in the same
// style as the Section 4.1 control packets of packets.go: a type byte,
// big-endian fields in field order, CRC-16/CCITT-FALSE over everything
// before the CRC field. The paper only specifies the configuration and
// grant formats; these two frames extend the family for carrying cells
// between hosts and the switch over a byte stream:
//
//	data (host → switch, and switch → host on delivery):
//	    {type=dat | src[7..0] | dst[7..0] | seq[63..0] | stamp[63..0] | CRC[15..0]}
//	nack (switch → host, admission backpressure):
//	    {type=nak | seq[63..0] | CRC[15..0]}
//
// Src is filled in by the switch (the port the sending connection owns);
// hosts send 0. Seq and Stamp are opaque to the switch and echoed on
// delivery, which is how the load generator correlates departures with
// its own send timestamps without any shared clock with the switch.

package clint

import (
	"encoding/binary"
	"fmt"

	"repro/internal/crc16"
)

// Data-plane packet type tags (the control-plane tags are in packets.go).
const (
	TypeData byte = 0xDA
	TypeNack byte = 0x4E
)

// Data is one fixed-size cell crossing the host↔switch link.
type Data struct {
	Src   uint8
	Dst   uint8
	Seq   uint64
	Stamp uint64
}

// DataLen is the encoded length: type + src + dst + seq + stamp + CRC-16.
const DataLen = 1 + 1 + 1 + 8 + 8 + 2

// Encode serializes the packet with its CRC.
func (d Data) Encode() []byte {
	buf := make([]byte, DataLen)
	d.EncodeTo(buf)
	return buf
}

// EncodeTo serializes into buf, which must be at least DataLen bytes —
// the allocation-free path for the per-connection write loops.
func (d Data) EncodeTo(buf []byte) {
	buf[0] = TypeData
	buf[1] = d.Src
	buf[2] = d.Dst
	binary.BigEndian.PutUint64(buf[3:], d.Seq)
	binary.BigEndian.PutUint64(buf[11:], d.Stamp)
	binary.BigEndian.PutUint16(buf[19:], crc16.Checksum(buf[:19]))
}

// DecodeData parses and verifies a data packet.
func DecodeData(frame []byte) (Data, error) {
	var d Data
	if len(frame) != DataLen {
		return d, fmt.Errorf("clint: data frame length %d, want %d", len(frame), DataLen)
	}
	if frame[0] != TypeData {
		return d, fmt.Errorf("clint: data frame has type %#02x", frame[0])
	}
	if !crc16.Verify(frame[:19], binary.BigEndian.Uint16(frame[19:])) {
		return d, fmt.Errorf("clint: data frame CRC mismatch")
	}
	d.Src = frame[1]
	d.Dst = frame[2]
	d.Seq = binary.BigEndian.Uint64(frame[3:])
	d.Stamp = binary.BigEndian.Uint64(frame[11:])
	return d, nil
}

// Nack reports that the data packet carrying Seq was refused admission
// (its VOQ was full). The sender decides whether to retry or drop.
type Nack struct {
	Seq uint64
}

// NackLen is the encoded length: type + seq + CRC-16.
const NackLen = 1 + 8 + 2

// Encode serializes the packet with its CRC.
func (n Nack) Encode() []byte {
	buf := make([]byte, NackLen)
	n.EncodeTo(buf)
	return buf
}

// EncodeTo serializes into buf, which must be at least NackLen bytes.
func (n Nack) EncodeTo(buf []byte) {
	buf[0] = TypeNack
	binary.BigEndian.PutUint64(buf[1:], n.Seq)
	binary.BigEndian.PutUint16(buf[9:], crc16.Checksum(buf[:9]))
}

// DecodeNack parses and verifies a nack packet.
func DecodeNack(frame []byte) (Nack, error) {
	var n Nack
	if len(frame) != NackLen {
		return n, fmt.Errorf("clint: nack frame length %d, want %d", len(frame), NackLen)
	}
	if frame[0] != TypeNack {
		return n, fmt.Errorf("clint: nack frame has type %#02x", frame[0])
	}
	if !crc16.Verify(frame[:9], binary.BigEndian.Uint16(frame[9:])) {
		return n, fmt.Errorf("clint: nack frame CRC mismatch")
	}
	n.Seq = binary.BigEndian.Uint64(frame[1:])
	return n, nil
}

// FrameLen returns the on-wire length of a frame from its type byte, or 0
// for an unknown type — how the stream readers in cmd/lcfd and
// cmd/lcfload know how many bytes to read after the type.
func FrameLen(typ byte) int {
	switch typ {
	case TypeConfig:
		return ConfigLen
	case TypeGrant:
		return GrantLen
	case TypeData:
		return DataLen
	case TypeNack:
		return NackLen
	case TypeFlowData:
		return FlowDataLen
	case TypeClassData:
		return ClassDataLen
	default:
		return 0
	}
}
