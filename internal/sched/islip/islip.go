// Package islip implements the iSLIP scheduler of McKeown (reference [10]
// of the paper: "The iSLIP Scheduling Algorithm for Input-Queued
// Switches", IEEE/ACM ToN 7(2), 1999). iSLIP replaces PIM's randomness
// with rotating grant and accept pointers; the pointers desynchronize
// under load, which yields 100% throughput for uniform traffic.
package islip

import (
	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/sched"
)

// ISLIP is an iterative iSLIP scheduler.
type ISLIP struct {
	n          int
	iterations int
	firm       bool

	grantPtr  []int // g_j: per-output rotating grant pointer
	acceptPtr []int // a_i: per-input rotating accept pointer

	grants *bitvec.Matrix

	// Word-parallel kernel scratch (DESIGN.md §10).
	cols         *bitvec.Matrix // ctx.Req transposed: row j = requesters of output j
	unmatchedIn  *bitvec.Vector
	unmatchedOut *bitvec.Vector
	grantedIn    *bitvec.Vector // inputs holding ≥1 grant this iteration
}

var _ sched.Scheduler = (*ISLIP)(nil)

// New returns an iSLIP scheduler for n ports with the given iteration
// bound per slot.
func New(n, iterations int) *ISLIP {
	if n <= 0 {
		panic("islip: non-positive port count")
	}
	if iterations <= 0 {
		panic("islip: non-positive iteration count")
	}
	return &ISLIP{
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

// NewFIRM returns the FIRM variant (Serpanos & Antoniadis, INFOCOM 2000):
// identical to iSLIP except that an output whose grant was *not* accepted
// parks its pointer on the granted input instead of leaving it in place,
// so the same VOQ is granted again next slot — FCFS-like service that
// tightens iSLIP's fairness bound from (n−1)²+n² to n² slots. Included as
// the third point of the pointer-discipline ablation (rrm / islip / firm).
func NewFIRM(n, iterations int) *ISLIP {
	s := New(n, iterations)
	s.firm = true
	return s
}

// Name implements sched.Scheduler.
func (s *ISLIP) Name() string {
	if s.firm {
		return "firm"
	}
	return "islip"
}

// N implements sched.Scheduler.
func (s *ISLIP) N() int { return s.n }

// Pointers returns copies of the grant and accept pointers, for tests of
// the pointer-update rule.
func (s *ISLIP) Pointers() (grant, accept []int) {
	return append([]int(nil), s.grantPtr...), append([]int(nil), s.acceptPtr...)
}

// Schedule implements sched.Scheduler. Each iteration:
//
//	Grant:  every unmatched output j grants the requesting unmatched input
//	        found first at or after grantPtr[j].
//	Accept: every unmatched input i accepts the granting output found
//	        first at or after acceptPtr[i].
//
// Pointers advance one position beyond the partner — but only for matches
// made in the first iteration, the rule iSLIP uses to preserve its
// starvation-freedom and desynchronization properties.
// The implementation is word-parallel (DESIGN.md §10; the bit-at-a-time
// sweep survives as scheduleRef in ref_test.go, pinned bit-exact by the
// differential tests): each output's grant is one circular masked
// first-set scan of its requester column against the unmatched-input
// set — the programmable priority encoder of McKeown's hardware, run in
// software over 64-bit words.
func (s *ISLIP) Schedule(ctx *sched.Context, m *matching.Match) {
	sched.CheckDims(s, ctx, m)
	m.Reset()
	req := ctx.Req

	req.TransposeInto(s.cols)
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
			if s.firm && it == 0 {
				// FIRM: park on the granted input now; an
				// acceptance below moves it one past.
				s.grantPtr[j] = i
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
				s.grantPtr[j] = (i + 1) % s.n
				s.acceptPtr[i] = (j + 1) % s.n
			}
		}
	}
}
