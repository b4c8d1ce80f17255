// Flow framing for the flow-aware front tier (internal/flowtable, wired
// through runtime.Offer's steer stage). A host that speaks flows does not
// pick its own input port: it names the flow, and the switch's steering
// table resolves (and pins) the port. The frame is therefore the data frame
// of data.go with the implicit "this connection's port" source replaced
// by an explicit 64-bit flow id, in the same Section 4.1 style: a type
// byte, big-endian fields in field order, CRC-16/CCITT-FALSE over
// everything before the CRC field.
//
//	flow data (host → switch, one per frame):
//	    {type=flw | flow[63..0] | dst[7..0] | seq[63..0] | stamp[63..0] |
//	     CRC[15..0]}
//
// Flow is the steering key — any stable 64-bit identity (a 5-tuple hash,
// a tenant id). Dst is the destination output port; Seq and Stamp are
// opaque end-to-end values echoed at delivery, exactly like the plain
// data frame. There is no Src field anywhere: the switch answers a
// steering refusal (table full) or VOQ backpressure with the ordinary
// nack frame carrying Seq, and deliveries arrive as data frames with Src
// filled in from the steered port.

package clint

import (
	"encoding/binary"
	"fmt"

	"repro/internal/crc16"
)

// TypeFlowData tags a flow-steered data frame.
const TypeFlowData byte = 0xF1

// FlowData is one frame admitted through the flow front door: the switch
// steers it to an input port by flow id instead of by connection.
type FlowData struct {
	// Flow is the 64-bit flow identity the steering table keys on.
	Flow uint64
	// Dst is the destination output port.
	Dst uint8
	// Seq and Stamp are opaque end-to-end values, echoed on delivery.
	Seq   uint64
	Stamp uint64
}

// FlowDataLen is the encoded length: type + flow + dst + seq + stamp +
// CRC-16.
const FlowDataLen = 1 + 8 + 1 + 8 + 8 + 2

// Encode serializes the frame with its CRC.
func (d FlowData) Encode() []byte {
	buf := make([]byte, FlowDataLen)
	d.EncodeTo(buf)
	return buf
}

// EncodeTo serializes into buf, which must be at least FlowDataLen bytes
// — the allocation-free path for the load generator's send loop.
func (d FlowData) EncodeTo(buf []byte) {
	buf[0] = TypeFlowData
	binary.BigEndian.PutUint64(buf[1:], d.Flow)
	buf[9] = d.Dst
	binary.BigEndian.PutUint64(buf[10:], d.Seq)
	binary.BigEndian.PutUint64(buf[18:], d.Stamp)
	binary.BigEndian.PutUint16(buf[26:], crc16.Checksum(buf[:26]))
}

// DecodeFlowData parses and verifies a flow data frame.
func DecodeFlowData(frame []byte) (FlowData, error) {
	var d FlowData
	if len(frame) != FlowDataLen {
		return d, fmt.Errorf("clint: flow frame length %d, want %d", len(frame), FlowDataLen)
	}
	if frame[0] != TypeFlowData {
		return d, fmt.Errorf("clint: flow frame has type %#02x", frame[0])
	}
	if !crc16.Verify(frame[:26], binary.BigEndian.Uint16(frame[26:])) {
		return d, fmt.Errorf("clint: flow frame CRC mismatch")
	}
	d.Flow = binary.BigEndian.Uint64(frame[1:])
	d.Dst = frame[9]
	d.Seq = binary.BigEndian.Uint64(frame[10:])
	d.Stamp = binary.BigEndian.Uint64(frame[18:])
	return d, nil
}
