// Package sched defines the scheduler abstraction shared by the LCF
// schedulers (internal/core) and every comparison scheduler from the
// paper's Section 6.3 (PIM, iSLIP, wave front, FIFO, and the maximum-size /
// maximum-weight references).
//
// A Scheduler computes, once per time slot, a conflict-free matching
// between the input ports that have packets and the output ports those
// packets are destined for. The request matrix is the union of non-empty
// virtual output queues — exactly the "request vector from each initiator"
// of the paper's Section 2.
package sched

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/matching"
)

// Context carries the inputs a scheduler may consult for one slot.
type Context struct {
	// Req is the request matrix: Req.Get(i,j) reports that input i has at
	// least one packet queued for output j. Schedulers must treat it as
	// read-only; mutators copy it into scratch state first.
	Req *bitvec.Matrix
	// QueueLens, when non-nil, gives the VOQ backlog behind each request
	// (QueueLens[i][j]). Only weight-aware schedulers (LQF) read it; the
	// pure occupancy-based schedulers of the paper ignore it.
	QueueLens [][]int
}

// Requests adapts the context's request matrix to matching.Requests for
// validation.
func (c *Context) Requests() matching.Requests { return matrixRequests{c.Req} }

type matrixRequests struct{ m *bitvec.Matrix }

func (r matrixRequests) N() int                  { return r.m.N() }
func (r matrixRequests) Requested(i, j int) bool { return r.m.Get(i, j) }

// AsRequests wraps a bare matrix as matching.Requests.
func AsRequests(m *bitvec.Matrix) matching.Requests { return matrixRequests{m} }

// Scheduler computes one matching per slot.
//
// Schedule must reset m, which callers reuse and which may still hold an
// earlier slot's matching, then populate it with a conflict-free matching
// that grants only requested pairs. Schedulers carry slot-to-slot state
// (round-robin pointers, RNG); Schedule is invoked exactly once per slot
// in simulated-time order.
type Scheduler interface {
	// Name returns the evaluation label used in the paper's Figure 12
	// (e.g. "lcf_central_rr").
	Name() string
	// N returns the port count the scheduler was built for.
	N() int
	// Schedule computes the matching for the current slot.
	Schedule(ctx *Context, m *matching.Match)
}

// CheckDims panics unless the context and match agree with the scheduler's
// port count; shared by all implementations so dimension bugs surface at
// the call site.
func CheckDims(s Scheduler, ctx *Context, m *matching.Match) {
	if ctx.Req.N() != s.N() {
		panic(fmt.Sprintf("sched: %s built for n=%d got request matrix n=%d", s.Name(), s.N(), ctx.Req.N()))
	}
	if m.N() != s.N() {
		panic(fmt.Sprintf("sched: %s built for n=%d got match n=%d", s.Name(), s.N(), m.N()))
	}
}

// GrantRule attributes one grant of a computed matching to the decision
// rule that produced it. The LCF schedulers distinguish the round-robin
// diagonal (the fairness mechanism of Section 3) from the least-choice
// rule itself; schedulers without that structure report every grant as
// RuleUnattributed.
type GrantRule uint8

// Grant attribution values, in registration order of the lcf_grants_total
// Prometheus label.
const (
	// RuleUnattributed marks a grant from a scheduler that does not
	// implement Explainer (or an explained grant outside a named rule).
	RuleUnattributed GrantRule = iota
	// RuleLCF marks a grant decided by the least-choice-first comparison:
	// the winner had the fewest outstanding requests for the resource.
	RuleLCF
	// RuleDiagonal marks an RRInterleaved grant where the rotating
	// round-robin position won unconditionally (Figure 2's "rr position
	// wins" branch).
	RuleDiagonal
	// RulePrescheduled marks a grant of the prescheduled diagonal
	// (RRPrescheduled), granted before any LCF decision ran.
	RulePrescheduled

	// NumGrantRules sizes per-rule counter arrays.
	NumGrantRules = 4
)

// String returns the Prometheus label value for the rule.
func (r GrantRule) String() string {
	switch r {
	case RuleLCF:
		return "lcf"
	case RuleDiagonal:
		return "diagonal"
	case RulePrescheduled:
		return "prescheduled"
	default:
		return "unattributed"
	}
}

// Explainer is optionally implemented by schedulers that can attribute
// each grant of their most recent Schedule call to a decision rule —
// the per-decision visibility the observability layer (internal/obs)
// records in slot traces and per-rule grant counters.
type Explainer interface {
	// Explain reports how input i's grant in the last computed matching
	// was decided: the rule that won, and the number of outstanding
	// requests ("choices") the winner held at decision time — the LCF
	// priority level, 1 meaning the input had only one option left.
	// For inputs left unmatched by the last Schedule call, Explain
	// returns (RuleUnattributed, -1). Like Schedule itself, Explain is
	// not safe for use concurrently with Schedule.
	Explain(i int) (rule GrantRule, choices int)
}

// Options bundles the tunables shared across scheduler constructors.
type Options struct {
	// Iterations bounds the request/grant/accept rounds of the iterative
	// schedulers (PIM, iSLIP, distributed LCF). The paper's Figure 12 uses
	// 4. Zero means the implementation default (4).
	Iterations int
	// Seed drives the randomized schedulers (PIM) and any randomized
	// tie-break. Deterministic schedulers ignore it.
	Seed uint64
}

// EffectiveIterations resolves the default.
func (o Options) EffectiveIterations() int {
	if o.Iterations <= 0 {
		return 4
	}
	return o.Iterations
}
