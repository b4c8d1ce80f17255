// Package pim implements the Parallel Iterative Matcher of Anderson,
// Owicki, Saxe and Thacker (reference [1] of the paper; DEC SRC Report 99,
// the AN2 switch scheduler). PIM is the closest relative of the distributed
// LCF scheduler: the same request/grant/accept iteration, but every choice
// is uniformly random instead of priority-driven.
package pim

import (
	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/rng"
	"repro/internal/sched"
)

// PIM is a parallel iterative matcher with a bounded iteration count.
type PIM struct {
	n          int
	iterations int
	r          *rng.PCG32

	grants *bitvec.Matrix

	// Word-parallel kernel scratch (DESIGN.md §10).
	cols         *bitvec.Matrix
	unmatchedIn  *bitvec.Vector
	unmatchedOut *bitvec.Vector
	grantedIn    *bitvec.Vector
	cand         *bitvec.Vector
}

var _ sched.Scheduler = (*PIM)(nil)

// New returns a PIM scheduler for n ports running the given number of
// iterations per slot (the paper's Figure 12 uses 4), seeded
// deterministically.
func New(n, iterations int, seed uint64) *PIM {
	if n <= 0 {
		panic("pim: non-positive port count")
	}
	if iterations <= 0 {
		panic("pim: non-positive iteration count")
	}
	return &PIM{
		n:            n,
		iterations:   iterations,
		r:            rng.New(seed),
		grants:       bitvec.NewMatrix(n),
		cols:         bitvec.NewMatrix(n),
		unmatchedIn:  bitvec.New(n),
		unmatchedOut: bitvec.New(n),
		grantedIn:    bitvec.New(n),
		cand:         bitvec.New(n),
	}
}

// Name implements sched.Scheduler.
func (p *PIM) Name() string { return "pim" }

// N implements sched.Scheduler.
func (p *PIM) N() int { return p.n }

// Schedule implements sched.Scheduler: in each iteration every unmatched
// output grants a uniformly random requesting unmatched input, and every
// input with grants accepts one uniformly at random.
//
// Word-parallel (DESIGN.md §10; the candidate-slice version survives as
// scheduleRef in ref_test.go): the uniform pick over a candidate set is
// NthSet(Intn(popcount)) — the k-th set bit of the candidate words —
// which consumes the PCG stream in exactly the reference's order, so the
// two implementations agree bit for bit from any seed.
func (p *PIM) Schedule(ctx *sched.Context, m *matching.Match) {
	sched.CheckDims(p, ctx, m)
	m.Reset()
	req := ctx.Req

	req.TransposeInto(p.cols, nil)
	p.unmatchedIn.SetAll()
	p.unmatchedOut.SetAll()

	for it := 0; it < p.iterations; it++ {
		p.grants.Reset()
		p.grantedIn.Reset()
		anyGrant := false
		for j := p.unmatchedOut.FirstSet(); j >= 0; j = p.unmatchedOut.NextSetAfter(j) {
			p.cand.AndInto(p.cols.Row(j), p.unmatchedIn)
			c := p.cand.PopCount()
			if c == 0 {
				continue
			}
			i := p.cand.NthSet(p.r.Intn(c))
			p.grants.Set(i, j)
			p.grantedIn.Set(i)
			anyGrant = true
		}
		if !anyGrant {
			break
		}
		for i := p.grantedIn.FirstSet(); i >= 0; i = p.grantedIn.NextSetAfter(i) {
			row := p.grants.Row(i)
			j := row.NthSet(p.r.Intn(row.PopCount()))
			m.Pair(i, j)
			p.unmatchedIn.Clear(i)
			p.unmatchedOut.Clear(j)
		}
	}
}
