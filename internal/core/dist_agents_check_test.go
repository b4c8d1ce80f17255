package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/hwmodel"
	"repro/internal/matching"
	"repro/internal/sched"
)

func randomMatrix(r *rand.Rand, n int, density float64) *bitvec.Matrix {
	m := bitvec.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < density {
				m.Set(i, j)
			}
		}
	}
	return m
}

// TestEquivalenceWithAlgorithmicModel is the harness's reason to exist:
// the message-passing agents, each with strictly local knowledge plus the
// protocol's Busy notifications, must compute exactly the schedule of the
// global-knowledge formulation in core.Dist, slot after slot (pointer
// state and all).
func TestEquivalenceWithAlgorithmicModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(14) + 2
		iters := r.Intn(4) + 1
		h := New(n)
		d := core.NewDist(n, iters, false)
		hm := matching.NewMatch(n)
		dm := matching.NewMatch(n)
		for round := 0; round < 6; round++ {
			req := randomMatrix(r, n, r.Float64())
			h.Schedule(req, iters, hm)
			d.Schedule(&sched.Context{Req: req}, dm)
			if !hm.Equal(dm) {
				t.Logf("seed %d n %d iters %d round %d:\nharness %v\ncore    %v\nmatrix:\n%v",
					seed, n, iters, round, hm.InToOut, dm.InToOut, req)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure9ThroughMessages(t *testing.T) {
	// The Figure 9 instance (see dist_test.go) must complete in two
	// iterations through the message protocol too.
	req := bitvec.MatrixFromRows([][]int{
		{0, 0, 1, 0},
		{1, 0, 1, 1},
		{1, 1, 1, 1},
		{0, 1, 0, 1},
	})
	h := New(4)
	m := matching.NewMatch(4)
	h.Schedule(req, 2, m)
	want := map[int]int{0: 2, 1: 0, 3: 1, 2: 3}
	for in, out := range want {
		if m.InToOut[in] != out {
			t.Fatalf("input %d matched to %d, want %d", in, m.InToOut[in], out)
		}
	}
}

func TestTrafficMetering(t *testing.T) {
	n := 8
	h := New(n)
	req := bitvec.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			req.Set(i, j)
		}
	}
	m := matching.NewMatch(n)
	const cycles = 20
	const iters = 4
	for c := 0; c < cycles; c++ {
		h.Schedule(req, iters, m)
		if m.Size() == 0 {
			t.Fatal("no matches under full demand")
		}
	}
	st := h.Stats
	if st.Requests == 0 || st.Grants == 0 || st.Accepts == 0 {
		t.Fatalf("traffic not metered: %+v", st)
	}
	if st.Grants > st.Requests || st.Accepts > st.Grants {
		t.Fatalf("implausible traffic ordering: %+v", st)
	}
	// Busy notifications exist under contention (matched targets shed
	// requesters).
	if st.Busys == 0 {
		t.Fatal("no Busy notifications under full demand")
	}
	// The measured volume must respect the Section 6.2 worst case; the
	// Busy messages are extra protocol (1 bit each), so bound them in.
	worstPerCycle := int64(hwmodel.DistCommBits(n, iters))
	perCycle := st.Bits(n) / cycles
	if perCycle > worstPerCycle {
		t.Fatalf("measured %d bits/cycle above worst case %d", perCycle, worstPerCycle)
	}
	if st.Total() != st.Requests+st.Grants+st.Busys+st.Accepts {
		t.Fatal("Total arithmetic")
	}
}

func TestMeasuredTrafficWellBelowWorstCase(t *testing.T) {
	// At moderate density the measured signalling sits far below the
	// all-pairs worst case — the empirical headroom of the Figure 10b
	// wiring budget.
	r := rand.New(rand.NewSource(5))
	n := 16
	h := New(n)
	m := matching.NewMatch(n)
	const cycles = 50
	for c := 0; c < cycles; c++ {
		h.Schedule(randomMatrix(r, n, 0.3), 4, m)
	}
	measured := float64(h.Stats.Bits(n)) / cycles
	worst := float64(hwmodel.DistCommBits(n, 4))
	if measured > worst/3 {
		t.Fatalf("measured %.0f bits/cycle, worst case %.0f; expected large headroom", measured, worst)
	}
}

func TestLocalKnowledgeOnly(t *testing.T) {
	// Sanity on the protocol narrative: a lone initiator requesting a
	// single free target completes in one iteration with exactly one
	// request, one grant, one accept and no Busy.
	h := New(4)
	req := bitvec.NewMatrix(4)
	req.Set(2, 1)
	m := matching.NewMatch(4)
	h.Schedule(req, 4, m)
	if m.InToOut[2] != 1 {
		t.Fatalf("match %v", m.InToOut)
	}
	if h.Stats != (Traffic{Requests: 1, Grants: 1, Accepts: 1}) {
		t.Fatalf("traffic %+v", h.Stats)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt, want := range map[MsgType]string{
		MsgRequest: "request", MsgGrant: "grant", MsgBusy: "busy",
		MsgAccept: "accept", MsgType(9): "unknown",
	} {
		if mt.String() != want {
			t.Fatalf("%d.String() = %q", mt, mt.String())
		}
	}
}

func TestValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("New(0) did not panic")
			}
		}()
		New(0)
	}()
	h := New(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("dimension mismatch did not panic")
			}
		}()
		h.Schedule(bitvec.NewMatrix(5), 4, matching.NewMatch(5))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero iterations did not panic")
			}
		}()
		h.Schedule(bitvec.NewMatrix(4), 0, matching.NewMatch(4))
	}()
}

func BenchmarkHarness16Iter4(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	req := randomMatrix(r, 16, 0.6)
	h := New(16)
	m := matching.NewMatch(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Schedule(req, 4, m)
	}
}
