package core

import (
	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/sched"
)

// Dist is the distributed LCF scheduler of Section 5: an iterative
// three-step protocol in the style of PIM, but with choices driven by
// request/grant counts rather than randomness.
//
//   - Request: every unmatched initiator requests every (unmatched) target
//     it has a packet for, accompanied by nrq, the number of requests it is
//     sending.
//   - Grant: every unmatched target that received requests grants the one
//     with the lowest nrq (fewest choices), ties broken round-robin. The
//     grant is accompanied by ngt, the number of requests the target
//     received.
//   - Accept: every unmatched initiator that received grants accepts the
//     one with the lowest ngt, ties broken round-robin.
//
// The optional round-robin extension (lcf_dist_rr) pre-matches one rotating
// matrix position per scheduling cycle before the iterations run, which
// restores the hard fairness bound at a small cost in matching efficiency.
type Dist struct {
	n          int
	iterations int
	roundRobin bool

	// Rotating round-robin position [i,j] for the _rr variant; advances
	// like the central scheduler's diagonal origin.
	i, j int

	// Per-port rotating tie-break pointers, advanced iSLIP-style when a
	// grant/accept they selected becomes part of the match.
	grantPtr  []int // per target: where the grant search starts
	acceptPtr []int // per initiator: where the accept search starts

	// Scratch for the reference transcription (dist_ref_test.go).
	nrq []int // per initiator: requests sent this iteration
	ngt []int // per target: requests received this iteration

	grants *bitvec.Matrix // grants[i] has bit j set: target j granted initiator i

	// Scratch for the word-parallel kernel (DESIGN.md §10).
	cols         *bitvec.Matrix // ctx.Req transposed: row j = requesters of target j
	unmatchedIn  *bitvec.Vector // initiators not yet matched this slot
	unmatchedOut *bitvec.Vector // targets not yet matched this slot
	nrqPos       *bitvec.Vector // unmatched initiators with nrq > 0
	grantedIn    *bitvec.Vector // initiators holding ≥1 grant this iteration
	cand         *bitvec.Vector // per-target candidate scratch
	minSet       *bitvec.Vector // argmin scratch
	nrqBits      *bitvec.Counts // bit-sliced nrq
	ngtBits      *bitvec.Counts // bit-sliced ngt

	stats MessageStats
}

// MessageStats counts the protocol traffic of the distributed scheduler
// since construction — the empirical counterpart of the worst-case
// communication-cost formula i·n²·(2·log₂n+3) of Section 6.2 (the formula
// assumes every pair exchanges request/grant/accept every iteration; real
// traffic is much sparser).
type MessageStats struct {
	Cycles     int64 // scheduling cycles executed
	Iterations int64 // iterations actually run (≤ Cycles·bound)
	Requests   int64 // request messages sent (each 1+log₂n bits)
	Grants     int64 // grant messages sent (each 1+log₂n bits)
	Accepts    int64 // accept messages sent (each 1 bit)
}

// Bits returns the total signalling volume of the counted messages for an
// n-port switch, using Figure 10's encodings.
func (m MessageStats) Bits(n int) int64 {
	l := int64(1)
	for 1<<uint(l) < n {
		l++
	}
	return m.Requests*(1+l) + m.Grants*(1+l) + m.Accepts
}

// BitsPerCycle returns the average signalling volume per scheduling cycle.
func (m MessageStats) BitsPerCycle(n int) float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Bits(n)) / float64(m.Cycles)
}

var _ sched.Scheduler = (*Dist)(nil)

// NewDist returns a distributed LCF scheduler for an n-port switch running
// the given number of request/grant/accept iterations per slot (the paper
// uses 4). roundRobin enables the lcf_dist_rr variant.
func NewDist(n, iterations int, roundRobin bool) *Dist {
	if n <= 0 {
		panic("core: non-positive port count")
	}
	if iterations <= 0 {
		panic("core: non-positive iteration count")
	}
	return &Dist{
		n:            n,
		iterations:   iterations,
		roundRobin:   roundRobin,
		grantPtr:     make([]int, n),
		acceptPtr:    make([]int, n),
		nrq:          make([]int, n),
		ngt:          make([]int, n),
		grants:       bitvec.NewMatrix(n),
		cols:         bitvec.NewMatrix(n),
		unmatchedIn:  bitvec.New(n),
		unmatchedOut: bitvec.New(n),
		nrqPos:       bitvec.New(n),
		grantedIn:    bitvec.New(n),
		cand:         bitvec.New(n),
		minSet:       bitvec.New(n),
		nrqBits:      bitvec.NewCounts(n, n),
		ngtBits:      bitvec.NewCounts(n, n),
	}
}

// Name implements sched.Scheduler.
func (d *Dist) Name() string {
	if d.roundRobin {
		return "lcf_dist_rr"
	}
	return "lcf_dist"
}

// N implements sched.Scheduler.
func (d *Dist) N() int { return d.n }

// Iterations returns the configured iteration bound.
func (d *Dist) Iterations() int { return d.iterations }

// Stats returns the protocol-message counters accumulated so far.
func (d *Dist) Stats() MessageStats { return d.stats }

// SetPosition forces the round-robin position, for figure-reproduction
// tests.
func (d *Dist) SetPosition(i, j int) {
	d.i = ((i % d.n) + d.n) % d.n
	d.j = ((j % d.n) + d.n) % d.n
}

// Schedule implements sched.Scheduler. It computes exactly the Section 5
// protocol of scheduleRef (dist_ref_test.go), pinned bit-exact — including
// pointer evolution and MessageStats — by the differential tests, but
// runs the three steps word-parallel (DESIGN.md §10): every initiator's
// choice count is one bit-sliced column sum over the unmatched targets'
// requester columns, the per-target grant candidates are one column AND
// against the requesting-initiator set, and both "lowest count wins, ties
// round-robin" selections are a bit-sliced min-select followed by a
// circular first-set scan from the port's rotating pointer.
func (d *Dist) Schedule(ctx *sched.Context, m *matching.Match) {
	sched.CheckDims(d, ctx, m)
	m.Reset()
	n := d.n
	req := ctx.Req

	d.unmatchedIn.SetAll()
	d.unmatchedOut.SetAll()

	// Round-robin pre-match: the rotating position is "scheduled before
	// regular LCF scheduling takes place" (Section 5).
	if d.roundRobin && req.Get(d.i, d.j) {
		m.Pair(d.i, d.j)
		d.unmatchedIn.Clear(d.i)
		d.unmatchedOut.Clear(d.j)
	}

	req.TransposeInto(d.cols)

	d.stats.Cycles++
	for it := 0; it < d.iterations; it++ {
		// Request step: each unmatched initiator's choice count over
		// unmatched targets, for all initiators at once — the column sums
		// of the unmatched targets' requester rows. The sums of matched
		// initiators are formed too but never read: nrqPos keeps them out
		// of every candidate set. An initiator whose remaining requests
		// all point at matched targets sends nothing.
		d.nrqBits.SumRows(d.cols, d.unmatchedOut)
		d.nrqBits.NonZeroInto(d.nrqPos, d.unmatchedIn)
		if sent := d.nrqBits.SumMasked(d.nrqPos); sent > 0 {
			d.stats.Requests += int64(sent)
			d.stats.Iterations++
		}

		// Grant step: each unmatched target grants the requesting
		// initiator with the lowest nrq; the rotating pointer breaks ties
		// by deciding which equal-priority initiator is reached first.
		// d.grants is all zero here: the accept step below clears every
		// row it reads, and only those rows are ever set.
		anyGrant := false
		for j := d.unmatchedOut.FirstSet(); j >= 0; j = d.unmatchedOut.NextSetAfter(j) {
			// Candidates = requesters of j that are unmatched with nrq>0;
			// ngt[j] is how many requests target j received.
			d.cand.AndInto(d.cols.Row(j), d.nrqPos)
			ngt := d.cand.PopCount()
			if ngt == 0 {
				continue
			}
			d.ngtBits.Set(j, ngt)
			best := d.leastChoice(d.nrqBits, d.cand, ngt, d.grantPtr[j])
			d.grants.Set(best, j)
			d.grantedIn.Set(best)
			anyGrant = true
			d.stats.Grants++
		}
		if !anyGrant {
			break // converged: no unmatched initiator requests an unmatched target
		}

		// Accept step: each initiator with grants accepts the granting
		// target with the lowest ngt, ties again broken by a rotating
		// pointer. Pointers advance past the chosen partner only when a
		// match forms, the update rule that avoids pointer synchronization.
		for i := d.grantedIn.FirstSet(); i >= 0; i = d.grantedIn.NextSetAfter(i) {
			row := d.grants.Row(i)
			best := d.leastChoice(d.ngtBits, row, row.PopCount(), d.acceptPtr[i])
			row.Reset()
			m.Pair(i, best)
			d.unmatchedIn.Clear(i)
			d.unmatchedOut.Clear(best)
			d.stats.Accepts++
			d.grantPtr[best] = next(i, n)
			d.acceptPtr[i] = next(best, n)
		}
		d.grantedIn.Reset()
	}

	// Advance the round-robin position for the next scheduling cycle.
	d.i = next(d.i, n)
	if d.i == 0 {
		d.j = next(d.j, n)
	}
}

// leastChoice returns the member of cand (which holds size ≥ 1 bits)
// with the lowest count, ties going to the first at or after ptr
// circularly: the grant and accept rule. A lone candidate wins without
// the min-select and the priority scan, which would both pick it.
func (d *Dist) leastChoice(counts *bitvec.Counts, cand *bitvec.Vector, size, ptr int) int {
	if size == 1 {
		return cand.FirstSet()
	}
	counts.MinSelectInto(d.minSet, cand)
	return d.minSet.FirstSetFrom(ptr)
}

// next returns the port after p on an n-port ring, (p+1) mod n for p in
// [0, n), without the division.
func next(p, n int) int {
	if p++; p == n {
		return 0
	}
	return p
}
