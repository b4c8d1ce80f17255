// Package rrm implements Round-Robin Matching, the direct ancestor of
// iSLIP (McKeown's thesis, the paper's reference [9]; rotating-priority
// scheduling in the spirit of the paper's reference [6]). RRM is iSLIP
// with one rule changed: an output's grant pointer advances one position
// beyond the input it granted *whether or not the grant was accepted*
// (iSLIP moves it only on acceptance).
//
// That one rule is why RRM saturates near 63% throughput under uniform
// load while iSLIP reaches 100%: unaccepted grants drag the pointers of
// contending outputs forward together, so they stay synchronized and keep
// granting the same inputs, whereas iSLIP's update-on-accept rule
// desynchronizes them. The pair makes a clean ablation for what pointer
// discipline contributes — the same kind of single-rule delta that
// separates lcf_dist from pim.
package rrm

import (
	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/sched"
)

// RRM is a round-robin matching scheduler.
type RRM struct {
	n          int
	iterations int

	grantPtr  []int
	acceptPtr []int
	grants    *bitvec.Matrix

	// Word-parallel kernel scratch (DESIGN.md §10).
	cols         *bitvec.Matrix
	unmatchedIn  *bitvec.Vector
	unmatchedOut *bitvec.Vector
	grantedIn    *bitvec.Vector
}

var _ sched.Scheduler = (*RRM)(nil)

// New returns an RRM scheduler for n ports with the given iteration bound.
func New(n, iterations int) *RRM {
	if n <= 0 {
		panic("rrm: non-positive port count")
	}
	if iterations <= 0 {
		panic("rrm: non-positive iteration count")
	}
	return &RRM{
		n:            n,
		iterations:   iterations,
		grantPtr:     make([]int, n),
		acceptPtr:    make([]int, n),
		grants:       bitvec.NewMatrix(n),
		cols:         bitvec.NewMatrix(n),
		unmatchedIn:  bitvec.New(n),
		unmatchedOut: bitvec.New(n),
		grantedIn:    bitvec.New(n),
	}
}

// Name implements sched.Scheduler.
func (s *RRM) Name() string { return "rrm" }

// N implements sched.Scheduler.
func (s *RRM) N() int { return s.n }

// Schedule implements sched.Scheduler: iSLIP's grant/accept sweep, but
// with pointers advanced one position every slot regardless of outcome.
// Word-parallel (DESIGN.md §10); the bit-at-a-time sweep survives as
// scheduleRef in ref_test.go, pinned bit-exact by the differential tests.
func (s *RRM) Schedule(ctx *sched.Context, m *matching.Match) {
	sched.CheckDims(s, ctx, m)
	m.Reset()
	n := s.n
	req := ctx.Req

	req.TransposeInto(s.cols, nil)
	s.unmatchedIn.SetAll()
	s.unmatchedOut.SetAll()

	for it := 0; it < s.iterations; it++ {
		s.grants.Reset()
		s.grantedIn.Reset()
		anyGrant := false
		for j := s.unmatchedOut.FirstSet(); j >= 0; j = s.unmatchedOut.NextSetAfter(j) {
			i := s.cols.Row(j).FirstSetFromAnd(s.unmatchedIn, s.grantPtr[j])
			if i < 0 {
				continue
			}
			s.grants.Set(i, j)
			s.grantedIn.Set(i)
			anyGrant = true
			if it == 0 {
				// The RRM rule: advance past the granted input
				// now, acceptance or not.
				s.grantPtr[j] = (i + 1) % n
			}
		}
		if !anyGrant {
			break
		}
		for i := s.grantedIn.FirstSet(); i >= 0; i = s.grantedIn.NextSetAfter(i) {
			j := s.grants.Row(i).FirstSetFrom(s.acceptPtr[i])
			m.Pair(i, j)
			s.unmatchedIn.Clear(i)
			s.unmatchedOut.Clear(j)
			if it == 0 {
				s.acceptPtr[i] = (j + 1) % n
			}
		}
	}
}
