package clint

import (
	"testing"
)

func TestClassDataRoundTrip(t *testing.T) {
	cases := []ClassData{
		{},
		{Class: 2, Deadline: 64, Dst: 15, Seq: 42, Stamp: 7},
		{Class: 255, Deadline: ^uint64(0), Dst: 255, Seq: ^uint64(0), Stamp: 1 << 63},
	}
	for _, d := range cases {
		frame := d.Encode()
		if len(frame) != ClassDataLen {
			t.Fatalf("Encode(%+v) length %d, want %d", d, len(frame), ClassDataLen)
		}
		back, err := DecodeClassData(frame)
		if err != nil {
			t.Fatalf("DecodeClassData(%+v): %v", d, err)
		}
		if back != d {
			t.Fatalf("round trip mutated the frame: sent %+v, got %+v", d, back)
		}
	}
}

func TestClassDataRejectsCorruption(t *testing.T) {
	good := ClassData{Class: 1, Deadline: 32, Dst: 3, Seq: 5, Stamp: 6}.Encode()

	// Every single-bit flip must be caught by the type check or the CRC.
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 1 << bit
			if _, err := DecodeClassData(bad); err == nil {
				t.Fatalf("bit %d of byte %d flipped undetected", bit, i)
			}
		}
	}
	if _, err := DecodeClassData(good[:ClassDataLen-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := DecodeClassData(nil); err == nil {
		t.Fatal("nil frame accepted")
	}
}

// TestClassDataFrameLen pins the readLoop dispatch contract: the type
// byte must be unique across the protocol and FrameLen must know the
// length.
func TestClassDataFrameLen(t *testing.T) {
	if got := FrameLen(TypeClassData); got != ClassDataLen {
		t.Fatalf("FrameLen(TypeClassData) = %d, want %d", got, ClassDataLen)
	}
	taken := map[byte]string{
		TypeConfig: "config", TypeGrant: "grant", TypeData: "data",
		TypeNack: "nack", TypeBulkData: "bulk", TypeFlowData: "flow",
	}
	if name, clash := taken[TypeClassData]; clash {
		t.Fatalf("TypeClassData %#02x collides with the %s frame", TypeClassData, name)
	}
}
