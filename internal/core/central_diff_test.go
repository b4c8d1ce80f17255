package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/sched"
)

// fillRandom draws a fresh density per slot and sets each bit with it.
func fillRandom(r *rand.Rand, req *bitvec.Matrix) {
	n := req.N()
	density := r.Float64()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < density {
				req.Set(i, j)
			}
		}
	}
}

// diffCentral drives a word-parallel Central and a reference Central in
// lockstep over `slots` request matrices drawn by fill (into a cleared
// matrix) and fails on the first divergence in matching, Explain
// attribution, or internal offsets. Both schedulers are stateful (the
// rotating diagonal advances every slot), so multi-slot agreement pins
// the offset evolution too.
func diffCentral(t *testing.T, n int, mode RRMode, seed int64, slots int, fill func(*rand.Rand, *bitvec.Matrix)) {
	t.Helper()
	fast := NewCentralRR(n, mode)
	ref := NewCentralRR(n, mode)
	r := rand.New(rand.NewSource(seed))
	req := bitvec.NewMatrix(n)
	ctx := &sched.Context{Req: req}
	mFast := matching.NewMatch(n)
	mRef := matching.NewMatch(n)
	for slot := 0; slot < slots; slot++ {
		req.Reset()
		fill(r, req)
		fast.Schedule(ctx, mFast)
		ref.scheduleRef(ctx, mRef)
		for i := 0; i < n; i++ {
			if mFast.InToOut[i] != mRef.InToOut[i] {
				t.Fatalf("n=%d mode=%v slot=%d: input %d matched to %d, reference %d",
					n, mode, slot, i, mFast.InToOut[i], mRef.InToOut[i])
			}
			fr, fc := fast.Explain(i)
			rr, rc := ref.Explain(i)
			if fr != rr || fc != rc {
				t.Fatalf("n=%d mode=%v slot=%d: Explain(%d) = (%v,%d), reference (%v,%d)",
					n, mode, slot, i, fr, fc, rr, rc)
			}
		}
		fi, fj := fast.Offsets()
		ri, rj := ref.Offsets()
		if fi != ri || fj != rj {
			t.Fatalf("n=%d mode=%v slot=%d: offsets (%d,%d) vs reference (%d,%d)",
				n, mode, slot, fi, fj, ri, rj)
		}
	}
}

// TestCentralMatchesReference sweeps every width in 1..65 — including
// every non-word-multiple width where masking bugs live — across all
// three RR modes.
func TestCentralMatchesReference(t *testing.T) {
	for n := 1; n <= 65; n++ {
		slots := 12
		if n <= 16 {
			slots = 40
		}
		for _, mode := range []RRMode{RRNone, RRInterleaved, RRPrescheduled} {
			diffCentral(t, n, mode, int64(n)*3+int64(mode), slots, fillRandom)
		}
	}
}

// TestCentralMatchesReferenceWide spot-checks the widths beyond the fuzz
// sweep that the n=256 benchmark tier exercises.
func TestCentralMatchesReferenceWide(t *testing.T) {
	for _, n := range []int{127, 128, 129, 256} {
		for _, mode := range []RRMode{RRNone, RRInterleaved, RRPrescheduled} {
			diffCentral(t, n, mode, int64(n), 4, fillRandom)
		}
	}
}

// TestCentralMatchesReferenceSparse aims the same differential at the
// matrices the kernel's sparse shortcuts exist for — Schedule skipping a
// resource nobody can be granted, TransposeInto scattering a nearly empty
// block — which a random density almost never draws: no request at all,
// one, two, one full column with the rest empty (one resource, every
// requester), and one full row (one requester, every resource). Positions
// are redrawn every slot, and up to n = 65 the run is long enough for the
// rotating diagonal to cross them from every side.
func TestCentralMatchesReferenceSparse(t *testing.T) {
	requests := func(k int) func(*rand.Rand, *bitvec.Matrix) {
		return func(r *rand.Rand, req *bitvec.Matrix) {
			for c := 0; c < k; c++ {
				req.Set(r.Intn(req.N()), r.Intn(req.N()))
			}
		}
	}
	fills := []func(*rand.Rand, *bitvec.Matrix){
		requests(0), requests(1), requests(2),
		func(r *rand.Rand, req *bitvec.Matrix) { // full column
			j := r.Intn(req.N())
			for i := 0; i < req.N(); i++ {
				req.Set(i, j)
			}
		},
		func(r *rand.Rand, req *bitvec.Matrix) { // full row
			req.Row(r.Intn(req.N())).SetAll()
		},
	}
	widths := []int{127, 128, 129, 256}
	for n := 1; n <= 65; n++ {
		widths = append(widths, n)
	}
	for _, n := range widths {
		slots := 2*n + 3
		if n > 65 {
			slots = 24 // the reference is O(n²) a slot
		}
		for _, mode := range []RRMode{RRNone, RRInterleaved, RRPrescheduled} {
			for f, fill := range fills {
				diffCentral(t, n, mode, int64(n)*7+int64(f), slots, fill)
			}
		}
	}
}

// FuzzCentralMatchesReference lets the fuzzer pick width, mode, offsets,
// and the raw request bits.
func FuzzCentralMatchesReference(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(3), []byte{0xa5, 0x12})
	f.Add(uint8(17), uint8(2), uint8(0), []byte{0xff, 0x00, 0xff})
	f.Add(uint8(63), uint8(0), uint8(62), []byte{0x77})
	f.Add(uint8(65), uint8(1), uint8(64), []byte{0x01, 0x80, 0x3c})
	f.Fuzz(func(t *testing.T, width, mode, off uint8, bits []byte) {
		n := int(width%65) + 1
		rrMode := RRMode(mode % 3)
		fast := NewCentralRR(n, rrMode)
		ref := NewCentralRR(n, rrMode)
		fast.SetOffsets(int(off), int(off)/2)
		ref.SetOffsets(int(off), int(off)/2)
		req := bitvec.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				k := i*n + j
				if k/8 < len(bits) && bits[k/8]>>(k%8)&1 == 1 {
					req.Set(i, j)
				}
			}
		}
		ctx := &sched.Context{Req: req}
		mFast := matching.NewMatch(n)
		mRef := matching.NewMatch(n)
		for slot := 0; slot < 3; slot++ {
			fast.Schedule(ctx, mFast)
			ref.scheduleRef(ctx, mRef)
			for i := 0; i < n; i++ {
				if mFast.InToOut[i] != mRef.InToOut[i] {
					t.Fatalf("n=%d mode=%v slot=%d input %d: %d vs %d",
						n, rrMode, slot, i, mFast.InToOut[i], mRef.InToOut[i])
				}
				fr, fc := fast.Explain(i)
				rr, rc := ref.Explain(i)
				if fr != rr || fc != rc {
					t.Fatalf("n=%d mode=%v slot=%d Explain(%d): (%v,%d) vs (%v,%d)",
						n, rrMode, slot, i, fr, fc, rr, rc)
				}
			}
		}
	})
}
