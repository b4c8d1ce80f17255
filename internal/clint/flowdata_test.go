package clint

import (
	"testing"
)

func TestFlowDataRoundTrip(t *testing.T) {
	cases := []FlowData{
		{},
		{Flow: 0xDEADBEEFCAFEF00D, Dst: 15, Seq: 42, Stamp: 7},
		{Flow: ^uint64(0), Dst: 255, Seq: ^uint64(0), Stamp: 1 << 63},
	}
	for _, d := range cases {
		frame := d.Encode()
		if len(frame) != FlowDataLen {
			t.Fatalf("Encode(%+v) length %d, want %d", d, len(frame), FlowDataLen)
		}
		back, err := DecodeFlowData(frame)
		if err != nil {
			t.Fatalf("DecodeFlowData(%+v): %v", d, err)
		}
		if back != d {
			t.Fatalf("round trip mutated the frame: sent %+v, got %+v", d, back)
		}
	}
}

func TestFlowDataRejectsCorruption(t *testing.T) {
	good := FlowData{Flow: 99, Dst: 3, Seq: 5, Stamp: 6}.Encode()

	// Every single-bit flip must be caught by the type check or the CRC.
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 1 << bit
			if _, err := DecodeFlowData(bad); err == nil {
				t.Fatalf("bit %d of byte %d flipped undetected", bit, i)
			}
		}
	}
	if _, err := DecodeFlowData(good[:FlowDataLen-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := DecodeFlowData(nil); err == nil {
		t.Fatal("nil frame accepted")
	}
}

// TestFlowDataFrameLen pins the readLoop dispatch contract: the type byte
// must be unique across the protocol and FrameLen must know the length.
func TestFlowDataFrameLen(t *testing.T) {
	if got := FrameLen(TypeFlowData); got != FlowDataLen {
		t.Fatalf("FrameLen(TypeFlowData) = %d, want %d", got, FlowDataLen)
	}
	taken := map[byte]string{
		TypeConfig: "config", TypeGrant: "grant", TypeData: "data",
		TypeNack: "nack", TypeBulkData: "bulk",
	}
	if name, clash := taken[TypeFlowData]; clash {
		t.Fatalf("TypeFlowData %#02x collides with the %s frame", TypeFlowData, name)
	}
}
