package clint

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the wire decoders: whatever arrives off the
// quick channel, the switch must reject garbage with an error — never
// panic, never mis-accept. Run with `go test -fuzz=FuzzDecodeConfig` for
// continuous fuzzing; as plain tests they execute the seed corpus.

func FuzzDecodeConfig(f *testing.F) {
	f.Add(Config{Req: 0xABCD, Ben: 0xFFFF, Qen: 0xFFFF}.Encode())
	f.Add([]byte{})
	f.Add([]byte{TypeConfig})
	f.Add(bytes.Repeat([]byte{0xFF}, ConfigLen))
	f.Fuzz(func(t *testing.T, frame []byte) {
		cfg, err := DecodeConfig(frame)
		if err != nil {
			return
		}
		// Accepted frames must round-trip bit-exactly.
		re := cfg.Encode()
		if !bytes.Equal(re, frame) {
			t.Fatalf("accepted frame %x re-encodes to %x", frame, re)
		}
	})
}

func FuzzDecodeGrant(f *testing.F) {
	f.Add(Grant{NodeID: 3, Gnt: 9, GntVal: true}.Encode())
	f.Add([]byte{})
	f.Add([]byte{TypeGrant, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		g, err := DecodeGrant(frame)
		if err != nil {
			return
		}
		// Accepted grants re-encode to a decodable frame with the same
		// content. (Unused flag bits may differ, so compare decoded
		// values, not raw bytes.)
		back, err := DecodeGrant(g.Encode())
		if err != nil || back != g {
			t.Fatalf("accepted grant %+v does not round-trip: %+v, %v", g, back, err)
		}
	})
}

// FuzzGrantRoundTrip fuzzes the encode direction: every field value must
// either encode to a frame that decodes back bit-exactly, or be rejected
// loudly at Encode time. This is the target that would have caught a
// silent 4-bit truncation of NodeID/Gnt — a masked `nodeID & 0xF` slips
// through decode-only fuzzing (the wire can't carry the high bits) but
// fails the decoded == original comparison here the moment the fuzzer
// feeds a value above 15.
func FuzzGrantRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, false, false)
	f.Add(uint8(15), uint8(15), true, true, true)
	f.Add(uint8(16), uint8(0), true, false, false) // first out-of-range NodeID
	f.Add(uint8(3), uint8(255), false, true, false)
	f.Fuzz(func(t *testing.T, nodeID, gnt uint8, gntVal, linkErr, crcErr bool) {
		g := Grant{NodeID: nodeID, Gnt: gnt, GntVal: gntVal, LinkErr: linkErr, CRCErr: crcErr}
		defer func() {
			if r := recover(); r != nil && nodeID <= 0xF && gnt <= 0xF {
				t.Fatalf("Encode panicked on in-range grant %+v: %v", g, r)
			}
		}()
		frame := g.Encode()
		if nodeID > 0xF || gnt > 0xF {
			t.Fatalf("Encode accepted %+v, which does not fit the 4-bit wire fields", g)
		}
		back, err := DecodeGrant(frame)
		if err != nil {
			t.Fatalf("encoded grant %+v does not decode: %v", g, err)
		}
		if back != g {
			t.Fatalf("grant round trip mutated the packet: sent %+v, got %+v", g, back)
		}
	})
}

func FuzzDataRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(0), uint64(0))
	f.Add(uint8(255), uint8(255), uint64(1)<<63, ^uint64(0))
	f.Add(uint8(3), uint8(14), uint64(123456789), uint64(987654321))
	f.Fuzz(func(t *testing.T, src, dst uint8, seq, stamp uint64) {
		d := Data{Src: src, Dst: dst, Seq: seq, Stamp: stamp}
		back, err := DecodeData(d.Encode())
		if err != nil {
			t.Fatalf("encoded data %+v does not decode: %v", d, err)
		}
		if back != d {
			t.Fatalf("data round trip mutated the packet: sent %+v, got %+v", d, back)
		}
	})
}

func FuzzFlowDataRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint64(0), uint64(0))
	f.Add(^uint64(0), uint8(255), uint64(1)<<63, ^uint64(0))
	f.Add(uint64(0xDEADBEEF), uint8(7), uint64(123456789), uint64(42))
	f.Fuzz(func(t *testing.T, flow uint64, dst uint8, seq, stamp uint64) {
		d := FlowData{Flow: flow, Dst: dst, Seq: seq, Stamp: stamp}
		back, err := DecodeFlowData(d.Encode())
		if err != nil {
			t.Fatalf("encoded flow frame %+v does not decode: %v", d, err)
		}
		if back != d {
			t.Fatalf("flow frame round trip mutated the packet: sent %+v, got %+v", d, back)
		}
	})
}

// FuzzDecodeFlowData is the decode direction: arbitrary bytes must be
// rejected with an error or round-trip bit-exactly — never panic, never
// mis-accept (the same contract as FuzzDecodeConfig).
func FuzzDecodeFlowData(f *testing.F) {
	f.Add(FlowData{Flow: 9, Dst: 2, Seq: 11, Stamp: 4}.Encode())
	f.Add([]byte{})
	f.Add([]byte{TypeFlowData})
	f.Add(bytes.Repeat([]byte{0xFF}, FlowDataLen))
	f.Fuzz(func(t *testing.T, frame []byte) {
		d, err := DecodeFlowData(frame)
		if err != nil {
			return
		}
		re := d.Encode()
		if !bytes.Equal(re, frame) {
			t.Fatalf("accepted frame %x re-encodes to %x", frame, re)
		}
	})
}

func FuzzClassDataRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint8(0), uint64(0), uint64(0))
	f.Add(uint8(255), ^uint64(0), uint8(255), uint64(1)<<63, ^uint64(0))
	f.Add(uint8(2), uint64(64), uint8(7), uint64(123456789), uint64(42))
	f.Fuzz(func(t *testing.T, class uint8, deadline uint64, dst uint8, seq, stamp uint64) {
		d := ClassData{Class: class, Deadline: deadline, Dst: dst, Seq: seq, Stamp: stamp}
		back, err := DecodeClassData(d.Encode())
		if err != nil {
			t.Fatalf("encoded class frame %+v does not decode: %v", d, err)
		}
		if back != d {
			t.Fatalf("class frame round trip mutated the packet: sent %+v, got %+v", d, back)
		}
	})
}

// FuzzDecodeClassData is the decode direction: arbitrary bytes must be
// rejected with an error or round-trip bit-exactly — never panic, never
// mis-accept (the same contract as FuzzDecodeConfig).
func FuzzDecodeClassData(f *testing.F) {
	f.Add(ClassData{Class: 1, Deadline: 16, Dst: 2, Seq: 11, Stamp: 4}.Encode())
	f.Add([]byte{})
	f.Add([]byte{TypeClassData})
	f.Add(bytes.Repeat([]byte{0xFF}, ClassDataLen))
	f.Fuzz(func(t *testing.T, frame []byte) {
		d, err := DecodeClassData(frame)
		if err != nil {
			return
		}
		re := d.Encode()
		if !bytes.Equal(re, frame) {
			t.Fatalf("accepted frame %x re-encodes to %x", frame, re)
		}
	})
}

func FuzzNackRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, seq uint64) {
		back, err := DecodeNack(Nack{Seq: seq}.Encode())
		if err != nil {
			t.Fatalf("encoded nack seq %d does not decode: %v", seq, err)
		}
		if back.Seq != seq {
			t.Fatalf("nack round trip mutated seq: sent %d, got %d", seq, back.Seq)
		}
	})
}
