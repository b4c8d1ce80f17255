// Package core implements the paper's primary contribution: the Least
// Choice First (LCF) scheduling method, in both the central form of
// Section 3 (Figure 2 pseudo code) and the distributed, iterative form of
// Section 5.
//
// # The idea
//
// LCF prioritizes initiators by the inverse of their number of outstanding
// requests: an initiator with few requests has few choices left, so it is
// scheduled before initiators that still have many alternatives. This
// greedy rule maximizes the number of connections per slot. Pure LCF can
// starve a request indefinitely, so the practical scheduler interleaves a
// round-robin position — a rotating diagonal of the request matrix that
// wins unconditionally — which bounds the wait of every (initiator,target)
// pair by n² scheduling cycles and therefore guarantees each pair at least
// b/n² of a port's bandwidth (Section 3).
package core

import (
	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/sched"
)

// RRMode selects how much round-robin protection the central scheduler
// interleaves with the LCF rule. Section 3 describes the resulting
// fairness range: every requester/resource pair is guaranteed between 0
// (pure LCF) and b/n (pre-scheduled diagonal) of a port's bandwidth, with
// the Figure 2 algorithm sitting at b/n².
type RRMode int

const (
	// RRNone is pure LCF: least choice always decides; the rotating
	// priority chain only breaks ties. No fairness guarantee (the lower
	// bound 0 of the paper's range).
	RRNone RRMode = iota
	// RRInterleaved is the Figure 2 algorithm: while resource r is being
	// scheduled, the diagonal position for r wins unconditionally — but a
	// diagonal requester already matched by an earlier LCF decision has
	// left the competition, so the guarantee is b/n².
	RRInterleaved
	// RRPrescheduled grants the whole round-robin diagonal before any LCF
	// decision, the upper bound of Section 3's range: a requested
	// diagonal position can never be stolen, giving each pair ≈b/n.
	RRPrescheduled
)

// String implements fmt.Stringer.
func (m RRMode) String() string {
	switch m {
	case RRNone:
		return "none"
	case RRInterleaved:
		return "interleaved"
	case RRPrescheduled:
		return "prescheduled"
	default:
		return "unknown"
	}
}

// Central is the central LCF scheduler of Figure 2. It schedules the n
// resources sequentially; for each resource the round-robin position wins
// if it holds a request (when RoundRobin is enabled), otherwise the
// requester with the fewest outstanding requests wins, ties resolved by a
// rotating priority chain anchored at the round-robin position.
type Central struct {
	n      int
	rrMode RRMode

	// I and J are the round-robin offsets of Figure 2: the diagonal starts
	// at position [I, J] and advances every scheduling cycle as
	// I := I+1 mod n; if I = 0 then J := J+1 mod n, visiting every matrix
	// position once per n² cycles.
	i, j int

	// Scratch for the reference transcription (central_ref_test.go).
	r   *bitvec.Matrix // working copy of the request matrix
	nrq []int          // outstanding request count per requester

	// Scratch for the word-parallel kernel (DESIGN.md §10), reused across
	// slots to keep Schedule allocation-free.
	cols    *bitvec.Matrix // ctx.Req transposed: row r = requesters of resource r
	granted *bitvec.Vector // requesters matched so far this slot
	cand    *bitvec.Vector // candidate requesters of the resource in hand
	minSet  *bitvec.Vector // candidates with the minimal request count
	nrqBits *bitvec.Counts // bit-sliced outstanding request counts

	// Grant attribution for the last computed matching (sched.Explainer):
	// which decision rule matched each input and how many outstanding
	// requests the winner held at decision time.
	rules   []sched.GrantRule
	choices []int
}

var (
	_ sched.Scheduler = (*Central)(nil)
	_ sched.Explainer = (*Central)(nil)
)

// NewCentral returns a central LCF scheduler for an n-port switch.
// roundRobin selects between the paper's lcf_central_rr (true: the rotating
// diagonal wins unconditionally, RRInterleaved) and the pure lcf_central
// (false: least choice always decides, the rotating chain only breaks
// ties, RRNone).
func NewCentral(n int, roundRobin bool) *Central {
	mode := RRNone
	if roundRobin {
		mode = RRInterleaved
	}
	return NewCentralRR(n, mode)
}

// NewCentralRR returns a central LCF scheduler with an explicit
// round-robin mode, for the fairness/throughput ablation of Section 3's
// 0..b/n discussion.
func NewCentralRR(n int, mode RRMode) *Central {
	if n <= 0 {
		panic("core: non-positive port count")
	}
	if mode < RRNone || mode > RRPrescheduled {
		panic("core: unknown RR mode")
	}
	return &Central{
		n:       n,
		rrMode:  mode,
		r:       bitvec.NewMatrix(n),
		nrq:     make([]int, n),
		rules:   make([]sched.GrantRule, n),
		choices: make([]int, n),
		cols:    bitvec.NewMatrix(n),
		granted: bitvec.New(n),
		cand:    bitvec.New(n),
		minSet:  bitvec.New(n),
		nrqBits: bitvec.NewCounts(n, n),
	}
}

// Name implements sched.Scheduler.
func (c *Central) Name() string {
	switch c.rrMode {
	case RRInterleaved:
		return "lcf_central_rr"
	case RRPrescheduled:
		return "lcf_central_rrpre"
	default:
		return "lcf_central"
	}
}

// Mode returns the configured round-robin mode.
func (c *Central) Mode() RRMode { return c.rrMode }

// N implements sched.Scheduler.
func (c *Central) N() int { return c.n }

// Offsets returns the current round-robin offsets (I, J); exposed for the
// fairness analysis and the hardware model equivalence tests.
func (c *Central) Offsets() (i, j int) { return c.i, c.j }

// SetOffsets forces the round-robin offsets, for tests that reproduce a
// specific figure from the paper.
func (c *Central) SetOffsets(i, j int) {
	c.i = ((i % c.n) + c.n) % c.n
	c.j = ((j % c.n) + c.n) % c.n
}

// Schedule implements sched.Scheduler. It computes exactly the Figure 2
// matching (the transcription survives as scheduleRef in central_ref_test.go,
// pinned bit-exact by the differential tests) but runs the three hot
// decisions word-parallel (DESIGN.md §10):
//
//   - The candidate set for resource r is origColumn(r) ∧ ¬granted — the
//     reference clears only the rows of granted requesters, so its
//     surviving column is precisely the original column minus them. The
//     columns come from one word-parallel transpose per slot.
//   - The reference's discounted nrq[req] always equals |origRow(req) ∩
//     untaken resources| (each taken resource a requester wanted has
//     decremented it exactly once), so nrq lives in bit-sliced counters:
//     the per-grant discount is one DecMasked over the remaining
//     candidates, and "fewest outstanding requests" is a plane-wise
//     MinSelectInto instead of an n-wide scan.
//   - The reference scans candidates in the order (req+I+res) mod n with
//     a strict <, so the winner is the first member of the argmin set at
//     or after the round-robin position circularly: FirstSetFrom.
func (c *Central) Schedule(ctx *sched.Context, m *matching.Match) {
	sched.CheckDims(c, ctx, m)
	m.Reset()
	n := c.n

	ctx.Req.TransposeInto(c.cols)
	c.granted.Reset()
	// nrq[i] = Σ R[i,*]: the column sums of the transposed matrix, bulk-
	// loaded into the bit-sliced counters in one pass.
	c.nrqBits.SumRows(c.cols, nil)
	for req := 0; req < n; req++ {
		c.rules[req] = sched.RuleUnattributed
		c.choices[req] = -1
	}

	// RRPrescheduled: grant the entire rotating diagonal before the LCF
	// pass, so no LCF decision can steal a protected position (the b/n
	// upper bound of Section 3's fairness range).
	if c.rrMode == RRPrescheduled {
		for res := 0; res < n; res++ {
			resource := (c.j + res) % n
			rrPos := (c.i + res) % n
			// Requested and not yet granted ⇔ the reference's surviving
			// bit with an unmatched input.
			if c.cols.Row(resource).Get(rrPos) && !c.granted.Get(rrPos) {
				c.cand.AndNotInto(c.cols.Row(resource), c.granted)
				c.grant(m, rrPos, resource, sched.RulePrescheduled, c.nrqBits.Get(rrPos))
			}
		}
	}

	// Allocate resources one after the other. At step `res` the resource
	// being scheduled is (J+res) mod n and the round-robin position for it
	// is requester (I+res) mod n — together these trace the rotating
	// diagonal of Figure 3.
	for res := 0; res < n; res++ {
		resource := (c.j + res) % n
		rrPos := (c.i + res) % n
		if m.OutputMatched(resource) {
			continue // taken by the prescheduled diagonal
		}
		c.cand.AndNotInto(c.cols.Row(resource), c.granted)
		if c.cand.None() {
			// Nobody to grant: the min-select and the priority scan below
			// would pick no one and change nothing, at full price.
			continue
		}

		if c.rrMode == RRInterleaved && c.cand.Get(rrPos) {
			c.grant(m, rrPos, resource, sched.RuleDiagonal, c.nrqBits.Get(rrPos))
			continue
		}
		// Least choice first: reduce the candidates to those with the
		// minimal outstanding-request count, then take the first in the
		// rotating priority chain anchored at the round-robin position.
		min := c.nrqBits.MinSelectInto(c.minSet, c.cand)
		if gnt := c.minSet.FirstSetFrom(rrPos); gnt >= 0 {
			c.grant(m, gnt, resource, sched.RuleLCF, min)
		}
	}

	// Advance the diagonal: every position is the round-robin position
	// once per n² scheduling cycles.
	c.i = (c.i + 1) % n
	if c.i == 0 {
		c.j = (c.j + 1) % n
	}
}

// grant records the (gnt, resource) pair and maintains the kernel state:
// the winner leaves the competition, and every remaining candidate of the
// resource just taken is discounted so later priorities only reflect
// still-schedulable choices. c.cand must hold the resource's candidate
// set including gnt; it is consumed. nrq is the winner's pre-discount
// outstanding-request count (the Explain priority level) — the LCF path
// gets it for free from the min-select.
func (c *Central) grant(m *matching.Match, gnt, resource int, rule sched.GrantRule, nrq int) {
	m.Pair(gnt, resource)
	c.rules[gnt] = rule
	c.choices[gnt] = nrq // read before the discount
	c.granted.Set(gnt)
	c.cand.Clear(gnt)
	// Every remaining candidate requested this now-taken resource, so its
	// count is ≥ 1: DecMasked's no-borrow precondition holds.
	c.nrqBits.DecMasked(c.cand)
}

// Explain implements sched.Explainer: it attributes input i's grant in
// the last computed matching to the decision rule that produced it
// (diagonal, prescheduled diagonal, or the LCF comparison) and reports
// the number of outstanding requests the input held when it won — the
// LCF priority level (1 = the input had only one choice left). Unmatched
// inputs report (RuleUnattributed, -1).
func (c *Central) Explain(i int) (rule sched.GrantRule, choices int) {
	return c.rules[i], c.choices[i]
}
