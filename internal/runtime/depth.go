package runtime

import "math/bits"

// depthCensus is Stats.VOQDepth kept as a count instead of a rescan:
// cell (i, k) counts input i's occupied VOQs whose length falls in the
// histogram's bucket k (overflow last). The snapshot publishes its
// per-slot sample of every occupied VOQ by adding the visited inputs'
// rows, so a slot's depth work follows the VOQs whose length moved, not
// the VOQs that are occupied (DISQUO's rule, arXiv:1112.4214).
//
// Row i changes at the five sites that change one of input i's VOQ
// lengths — admit's and classFill's Enqueue, dispatch's Take and Untake,
// and the stranded sweep's FlushVOQ — each under inMu[i], the lock the
// snapshot reads the row under.
type depthCensus struct {
	cells  []int64 // n rows of stride cells
	stride int     // the histogram's buckets plus the overflow
}

// newDepthCensus sizes a census for n inputs and a histogram of bounds
// bucket bounds.
func newDepthCensus(n, bounds int) depthCensus {
	return depthCensus{cells: make([]int64, n*(bounds+1)), stride: bounds + 1}
}

// bucket is VOQDepth's bucket for a VOQ of length l ≥ 1. The bounds are
// 1, 2, 4, … (see New), so the first bound ≥ l is 2^⌈log₂ l⌉, bucket
// bits.Len(l-1); a length past the last bound overflows, which a CICQ
// pair can (its length counts the crosspoint buffer as well).
func (c *depthCensus) bucket(l int) int {
	if k := bits.Len(uint(l - 1)); k < c.stride-1 {
		return k
	}
	return c.stride - 1
}

// move records a VOQ of input i going from length from to length to
// (0 is empty, and is not counted).
func (c *depthCensus) move(i, from, to int) {
	row := c.row(i)
	if from > 0 {
		row[c.bucket(from)]--
	}
	if to > 0 {
		row[c.bucket(to)]++
	}
}

// row is input i's cells. Caller holds inMu[i].
func (c *depthCensus) row(i int) []int64 {
	return c.cells[i*c.stride : (i+1)*c.stride : (i+1)*c.stride]
}
