// Class framing for the PIFO service-class tier (internal/pifo). lcfd
// decodes each frame into a classed runtime.Request and admits it through
// Engine.Offer, whose rank stage places it in the PIFO. A host that
// speaks classes labels every frame with a class index from the switch's
// configured class list and may stamp a per-frame deadline budget; the
// switch ranks the frame in its (input, output) PIFO accordingly. Same
// Section 4.1 style as the rest of the family: a type byte, big-endian
// fields in field order, CRC-16/CCITT-FALSE over everything before the
// CRC field.
//
//	class data (host → switch, one per frame):
//	    {type=cls | class[7..0] | deadline[63..0] | dst[7..0] |
//	     seq[63..0] | stamp[63..0] | CRC[15..0]}
//
// Class indexes into the switch's class list (lcfd -classes order).
// Deadline is a relative SLO budget in slots: 0 means "use the class's
// configured budget", anything else overrides it for this frame (values
// above 2^63-1 do not fit the switch's slot arithmetic and fall back to
// the class default). Dst is the destination output port; Seq and Stamp
// are opaque end-to-end values echoed at delivery, exactly like the
// plain data frame. Refusals (bad class, PIFO backpressure, link down)
// come back as ordinary nack frames carrying Seq.

package clint

import (
	"encoding/binary"
	"fmt"

	"repro/internal/crc16"
)

// TypeClassData tags a class-labelled data frame.
const TypeClassData byte = 0xC5

// ClassData is one frame admitted through the service-class front door.
type ClassData struct {
	// Class is the index into the switch's configured class list.
	Class uint8
	// Deadline is the relative SLO budget in slots; 0 uses the class
	// default.
	Deadline uint64
	// Dst is the destination output port.
	Dst uint8
	// Seq and Stamp are opaque end-to-end values, echoed on delivery.
	Seq   uint64
	Stamp uint64
}

// ClassDataLen is the encoded length: type + class + deadline + dst +
// seq + stamp + CRC-16.
const ClassDataLen = 1 + 1 + 8 + 1 + 8 + 8 + 2

// Encode serializes the frame with its CRC.
func (d ClassData) Encode() []byte {
	buf := make([]byte, ClassDataLen)
	d.EncodeTo(buf)
	return buf
}

// EncodeTo serializes into buf, which must be at least ClassDataLen
// bytes — the allocation-free path for the load generator's send loop.
func (d ClassData) EncodeTo(buf []byte) {
	buf[0] = TypeClassData
	buf[1] = d.Class
	binary.BigEndian.PutUint64(buf[2:], d.Deadline)
	buf[10] = d.Dst
	binary.BigEndian.PutUint64(buf[11:], d.Seq)
	binary.BigEndian.PutUint64(buf[19:], d.Stamp)
	binary.BigEndian.PutUint16(buf[27:], crc16.Checksum(buf[:27]))
}

// DecodeClassData parses and verifies a class data frame.
func DecodeClassData(frame []byte) (ClassData, error) {
	var d ClassData
	if len(frame) != ClassDataLen {
		return d, fmt.Errorf("clint: class frame length %d, want %d", len(frame), ClassDataLen)
	}
	if frame[0] != TypeClassData {
		return d, fmt.Errorf("clint: class frame has type %#02x", frame[0])
	}
	if !crc16.Verify(frame[:27], binary.BigEndian.Uint16(frame[27:])) {
		return d, fmt.Errorf("clint: class frame CRC mismatch")
	}
	d.Class = frame[1]
	d.Deadline = binary.BigEndian.Uint64(frame[2:])
	d.Dst = frame[10]
	d.Seq = binary.BigEndian.Uint64(frame[11:])
	d.Stamp = binary.BigEndian.Uint64(frame[19:])
	return d, nil
}
