package clint

import "testing"

func TestDataRoundTrip(t *testing.T) {
	d := Data{Src: 3, Dst: 14, Seq: 0xDEADBEEFCAFE, Stamp: 1234567890123456789}
	frame := d.Encode()
	if len(frame) != DataLen {
		t.Fatalf("encoded length %d, want %d", len(frame), DataLen)
	}
	got, err := DecodeData(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip: got %+v, want %+v", got, d)
	}
}

func TestDataCorruption(t *testing.T) {
	frame := Data{Src: 1, Dst: 2, Seq: 7, Stamp: 9}.Encode()
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := DecodeData(bad); err == nil {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
	if _, err := DecodeData(frame[:DataLen-1]); err == nil {
		t.Error("short frame went undetected")
	}
}

func TestNackRoundTrip(t *testing.T) {
	n := Nack{Seq: 0x0123456789ABCDEF}
	frame := n.Encode()
	if len(frame) != NackLen {
		t.Fatalf("encoded length %d, want %d", len(frame), NackLen)
	}
	got, err := DecodeNack(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("round trip: got %+v, want %+v", got, n)
	}
	frame[5] ^= 1
	if _, err := DecodeNack(frame); err == nil {
		t.Error("corrupted nack went undetected")
	}
}

func TestFrameLen(t *testing.T) {
	cases := map[byte]int{
		TypeConfig: ConfigLen,
		TypeGrant:  GrantLen,
		TypeData:   DataLen,
		TypeNack:   NackLen,
		0x00:       0,
		0xFF:       0,
	}
	for typ, want := range cases {
		if got := FrameLen(typ); got != want {
			t.Errorf("FrameLen(%#02x) = %d, want %d", typ, got, want)
		}
	}
}
