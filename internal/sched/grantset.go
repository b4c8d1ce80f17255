package sched

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/matching"
)

// GrantSet is the per-output view of one slot's scheduling decision: for
// every output j, the input granted to it this slot (or
// matching.Unmatched), plus the same per-grant attribution the Explainer
// interface exposes for matchings. It is the decision type shared by both
// datapaths: the VOQ core derives one from its central matching
// (FromMatch), while the crosspoint-buffered datapath produces one
// directly — its per-output pull arbiters are not constrained to a
// permutation (two outputs may pull frames buffered from the same input
// in one slot), which matching.Match cannot represent.
//
// The set also keeps the outputs that hold a grant (Granted), so Reset
// clears only those and a driver walks the grants rather than n outputs:
// a slot pays for what it granted. Write it only through Reset, Set and
// FromMatch.
//
// All storage is preallocated at construction; Reset and FromMatch stay
// allocation-free so the GrantSet can live on the drivers' slot paths.
type GrantSet struct {
	// Src[j] is the input granted to output j, or matching.Unmatched.
	Src []int
	// Rule[j] attributes output j's grant to a decision rule
	// (RuleUnattributed when Src[j] is Unmatched).
	Rule []GrantRule
	// Choices[j] is the LCF priority level behind output j's grant — how
	// many alternatives the decision weighed — or -1 when unattributed.
	Choices []int

	granted *bitvec.Vector // outputs j with Src[j] != Unmatched
}

// NewGrantSet returns an empty grant set for an n-port switch.
func NewGrantSet(n int) *GrantSet {
	g := &GrantSet{
		Src:     make([]int, n),
		Rule:    make([]GrantRule, n),
		Choices: make([]int, n),
		granted: bitvec.New(n),
	}
	for j := range g.Src {
		g.Src[j] = matching.Unmatched
		g.Choices[j] = -1
	}
	return g
}

// N returns the port count.
func (g *GrantSet) N() int { return len(g.Src) }

// Reset clears every grant, visiting only the outputs that hold one.
func (g *GrantSet) Reset() {
	for k, w := range g.granted.Words() {
		for ; w != 0; w &= w - 1 {
			g.clear(k<<6 + bits.TrailingZeros64(w))
		}
	}
	g.granted.Reset()
}

func (g *GrantSet) clear(j int) {
	g.Src[j] = matching.Unmatched
	g.Rule[j] = RuleUnattributed
	g.Choices[j] = -1
}

// Set records the grant input i → output j; i must be an input, not
// matching.Unmatched.
func (g *GrantSet) Set(j, i int, rule GrantRule, choices int) {
	g.Src[j] = i
	g.Rule[j] = rule
	g.Choices[j] = choices
	g.granted.Set(j)
}

// Granted returns the outputs holding a grant, for walking them in
// ascending order. The vector is the set's own state: read-only, valid
// until the next Reset, Set or FromMatch.
func (g *GrantSet) Granted() *bitvec.Vector { return g.granted }

// Size returns the number of granted outputs.
func (g *GrantSet) Size() int { return g.granted.PopCount() }

// FromMatch fills g from a central matching, attributing each grant via
// ex when non-nil. This is the bridge the VOQ core uses so both datapaths
// hand their drivers the same decision type. It reads every output of m
// but writes only the outputs granted before or now, and rebuilds the
// granted set a word at a time.
func (g *GrantSet) FromMatch(m *matching.Match, ex Explainer) {
	words := g.granted.Words()
	for j, i := range m.OutToIn {
		if j&63 == 0 {
			words[j>>6] = 0
		}
		if i == matching.Unmatched {
			if g.Src[j] != matching.Unmatched {
				g.clear(j)
			}
			continue
		}
		rule, choices := RuleUnattributed, -1
		if ex != nil {
			rule, choices = ex.Explain(i)
		}
		g.Src[j] = i
		g.Rule[j] = rule
		g.Choices[j] = choices
		words[j>>6] |= 1 << uint(j&63)
	}
}
