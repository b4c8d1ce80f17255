package sched

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/matching"
)

type fakeSched struct{ n int }

func (f fakeSched) Name() string                       { return "fake" }
func (f fakeSched) N() int                             { return f.n }
func (f fakeSched) Schedule(*Context, *matching.Match) {}

func TestContextRequestsAdapter(t *testing.T) {
	m := bitvec.NewMatrix(3)
	m.Set(1, 2)
	ctx := &Context{Req: m}
	r := ctx.Requests()
	if r.N() != 3 {
		t.Fatalf("N = %d", r.N())
	}
	if !r.Requested(1, 2) || r.Requested(0, 0) {
		t.Fatal("Requested mismatch")
	}
	r2 := AsRequests(m)
	if !r2.Requested(1, 2) {
		t.Fatal("AsRequests mismatch")
	}
}

func TestCheckDims(t *testing.T) {
	s := fakeSched{n: 4}
	ok := &Context{Req: bitvec.NewMatrix(4)}
	CheckDims(s, ok, matching.NewMatch(4)) // must not panic

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("request dimension mismatch did not panic")
			}
		}()
		CheckDims(s, &Context{Req: bitvec.NewMatrix(3)}, matching.NewMatch(4))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("match dimension mismatch did not panic")
			}
		}()
		CheckDims(s, ok, matching.NewMatch(5))
	}()
}

func TestOptionsEffectiveIterations(t *testing.T) {
	if got := (Options{}).EffectiveIterations(); got != 4 {
		t.Fatalf("default iterations = %d, want 4 (the paper's setting)", got)
	}
	if got := (Options{Iterations: 2}).EffectiveIterations(); got != 2 {
		t.Fatalf("explicit iterations = %d", got)
	}
	if got := (Options{Iterations: -1}).EffectiveIterations(); got != 4 {
		t.Fatalf("negative iterations = %d, want default", got)
	}
}

// TestGrantSetFromMatch: a GrantSet refilled from a run of matchings —
// sparse after dense, empty, full — reads, output by output, what a fresh
// set filled from the same matching reads, and Granted and Size name
// exactly its granted outputs.
func TestGrantSetFromMatch(t *testing.T) {
	for _, n := range []int{1, 16, 63, 64, 65, 130} {
		r := rand.New(rand.NewSource(int64(n)))
		g := NewGrantSet(n)
		for step := 0; step < 60; step++ {
			m := matching.NewMatch(n)
			density := [...]float64{0, 1, 0.05, 0.5}[step%4]
			for j, i := range r.Perm(n) {
				if r.Float64() < density {
					m.Pair(i, j)
				}
			}
			g.FromMatch(m, nil)
			want := NewGrantSet(n)
			for j, i := range m.OutToIn {
				if i != matching.Unmatched {
					want.Src[j], want.Choices[j] = i, -1
				}
			}
			for j := 0; j < n; j++ {
				if g.Src[j] != want.Src[j] || g.Rule[j] != want.Rule[j] || g.Choices[j] != want.Choices[j] {
					t.Fatalf("n=%d step %d output %d: (%d,%v,%d), want (%d,%v,%d)", n, step, j,
						g.Src[j], g.Rule[j], g.Choices[j], want.Src[j], want.Rule[j], want.Choices[j])
				}
				if g.Granted().Get(j) != (m.OutToIn[j] != matching.Unmatched) {
					t.Fatalf("n=%d step %d: Granted()[%d] = %v", n, step, j, g.Granted().Get(j))
				}
			}
			if g.Size() != m.Size() {
				t.Fatalf("n=%d step %d: Size %d, want %d", n, step, g.Size(), m.Size())
			}
		}
	}
}
