package pim

import (
	"repro/internal/matching"
	"repro/internal/sched"
)

// scheduleRef is the original candidate-slice implementation, kept as
// the executable specification for the word-parallel Schedule: the
// differential tests pin Schedule to this body bit for bit, which
// requires consuming the PCG stream in exactly the same order — one
// Intn per granting output (ascending), one per accepting input
// (ascending), with identical candidate counts. Do not optimize it.
func (p *PIM) scheduleRef(ctx *sched.Context, m *matching.Match) {
	sched.CheckDims(p, ctx, m)
	m.Reset()
	n := p.n
	req := ctx.Req
	grantCand, acceptCand := make([]int, 0, n), make([]int, 0, n)

	for it := 0; it < p.iterations; it++ {
		p.grants.Reset()
		anyGrant := false
		for j := 0; j < n; j++ {
			if m.OutputMatched(j) {
				continue
			}
			cand := grantCand[:0]
			for i := 0; i < n; i++ {
				if !m.InputMatched(i) && req.Get(i, j) {
					cand = append(cand, i)
				}
			}
			if len(cand) == 0 {
				continue
			}
			p.grants.Set(cand[p.r.Intn(len(cand))], j)
			anyGrant = true
		}
		if !anyGrant {
			break
		}
		for i := 0; i < n; i++ {
			row := p.grants.Row(i)
			if row.None() {
				continue
			}
			cand := acceptCand[:0]
			for j := row.FirstSet(); j >= 0; j = row.NextSet(j + 1) {
				cand = append(cand, j)
			}
			m.Pair(i, cand[p.r.Intn(len(cand))])
		}
	}
}
