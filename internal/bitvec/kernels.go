// Word-parallel kernel primitives (DESIGN.md §10).
//
// The scheduler inner loops — "first requester of resource r at or after
// the rotating pointer", "requester of r with the fewest outstanding
// requests", "discount every remaining requester of r" — were originally
// transcribed as bit-at-a-time scans: O(n) bounds-checked Get probes per
// decision, O(n²) per slot. The primitives in this file run the same
// decisions over whole 64-bit words: masked intersection scans
// (FirstSetFromAnd, ForEachAnd, AndCount), destination boolean ops
// (AndInto, AndNotInto), a word-parallel matrix transpose (the column
// view the grant phases need), and bit-sliced counters (Counts) whose
// decrement-under-mask and min-select operate on ⌈log₂(n+1)⌉ bit planes
// instead of n counters.
//
// Everything here indexes the word slices directly, without per-bit
// bounds checks: the callers are kernel loops whose indices are provably
// in range (they come from TrailingZeros64 over the same words). The
// public bit-level API (Set/Get/Clear…) keeps its checks unchanged.
package bitvec

import "math/bits"

// Words returns the vector's backing words, least-significant word
// first; bit i of the vector is bit i%64 of word i/64. It is exposed
// for kernel inner loops that index words directly. Callers that write
// through it must preserve the trim invariant: bits at positions ≥
// Len() in the last word stay zero.
func (v *Vector) Words() []uint64 { return v.words }

// AndInto sets v = a ∧ b. All three vectors must have equal width; v may
// alias a or b.
func (v *Vector) AndInto(a, b *Vector) {
	v.checkSame(a)
	v.checkSame(b)
	for k := range v.words {
		v.words[k] = a.words[k] & b.words[k]
	}
}

// AndNotInto sets v = a ∧ ¬b. All three vectors must have equal width; v
// may alias a or b.
func (v *Vector) AndNotInto(a, b *Vector) {
	v.checkSame(a)
	v.checkSame(b)
	for k := range v.words {
		v.words[k] = a.words[k] &^ b.words[k]
	}
}

// AndAny reports whether v ∧ o has at least one set bit, without
// materializing the intersection.
func (v *Vector) AndAny(o *Vector) bool {
	v.checkSame(o)
	for k := range v.words {
		if v.words[k]&o.words[k] != 0 {
			return true
		}
	}
	return false
}

// AndCount returns the number of set bits of v ∧ o, without
// materializing the intersection.
func (v *Vector) AndCount(o *Vector) int {
	v.checkSame(o)
	c := 0
	for k := range v.words {
		c += bits.OnesCount64(v.words[k] & o.words[k])
	}
	return c
}

// NextSetAfter returns the index of the lowest set bit strictly greater
// than i, or -1 if none. NextSetAfter(-1) scans from the beginning.
func (v *Vector) NextSetAfter(i int) int { return v.NextSet(i + 1) }

// ForEachAnd calls fn for every set bit of v ∧ o in ascending order.
func (v *Vector) ForEachAnd(o *Vector, fn func(i int)) {
	v.checkSame(o)
	for k := range v.words {
		w := v.words[k] & o.words[k]
		base := k << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// FirstSetFromAnd returns the index of the first set bit of v ∧ o
// scanning circularly from `from` (inclusive), or -1 if the intersection
// is empty — the rotating-priority encoder over a masked candidate set,
// without materializing the intersection.
func (v *Vector) FirstSetFromAnd(o *Vector, from int) int {
	v.checkSame(o)
	if v.n == 0 {
		return -1
	}
	from = ((from % v.n) + v.n) % v.n
	wi := from >> 6
	// Tail of the starting word, then whole words to the end.
	if w := (v.words[wi] & o.words[wi]) >> uint(from&63); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for k := wi + 1; k < len(v.words); k++ {
		if w := v.words[k] & o.words[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	// Wrap: words before the starting word, then the starting word's head.
	for k := 0; k < wi; k++ {
		if w := v.words[k] & o.words[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	if w := v.words[wi] & o.words[wi]; w != 0 {
		if i := wi<<6 + bits.TrailingZeros64(w); i < from {
			return i
		}
	}
	return -1
}

// NthSet returns the index of the k-th set bit (0-based, ascending), or
// -1 if fewer than k+1 bits are set — the word-parallel candidate pick
// behind PIM's uniform random selection.
func (v *Vector) NthSet(k int) int {
	if k < 0 {
		return -1
	}
	for wi, w := range v.words {
		c := bits.OnesCount64(w)
		if k < c {
			for ; k > 0; k-- {
				w &= w - 1
			}
			return wi<<6 + bits.TrailingZeros64(w)
		}
		k -= c
	}
	return -1
}

// transposeScatterMax is the block population at or below which
// TransposeInto moves a 64×64 block bit by bit instead of through the
// butterfly. BenchmarkTransposeN64 is the table it is read off
// (results/bench_pr20.json, parent beside change): the butterfly costs
// ~570 ns whatever the block holds; loading, clearing the destination
// and scattering costs 130 ns at 2 bits, 300 at 96 and 390 at 192 —
// about 1.4 ns a bit, which would draw level with the butterfly
// somewhere past 300 bits. The constant sits well short of that, at
// three bits per row: a block this sparse is scattered in at most 0.7 of
// the butterfly's time on a host whose timings wander by 20 %, and a
// 64-port request matrix under load (≈ 350 bits at load 0.9) stays on
// the path it has always taken.
const transposeScatterMax = 192

// TransposeInto writes mᵀ into dst: dst bit (j,i) = m bit (i,j). Both
// matrices must have the same dimension and must not alias. The
// transpose runs 64×64 blocks through a word-parallel butterfly network
// (6·64 word swaps per block) instead of n² bit probes — it is how the
// grant phases obtain the per-resource requester columns. A block
// holding at most transposeScatterMax bits, counted while it is loaded,
// skips the network: its destination words are cleared and each set bit
// is written where it belongs, so a nearly empty request matrix costs
// what it holds.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if m.n != dst.n {
		panic("bitvec: transpose dimension mismatch")
	}
	nb := (m.n + wordBits - 1) / wordBits
	var blk [wordBits]uint64
	for bi := 0; bi < nb; bi++ {
		rlim := m.n - bi<<6
		if rlim > wordBits {
			rlim = wordBits
		}
		for bj := 0; bj < nb; bj++ {
			clim := m.n - bj<<6
			if clim > wordBits {
				clim = wordBits
			}
			idx := bi<<6*m.w + bj
			pop := 0
			for k := 0; k < rlim; k++ {
				blk[k] = m.flat[idx]
				pop += bits.OnesCount64(blk[k])
				idx += m.w
			}
			out := bj<<6*dst.w + bi // dst word of the block's column 0
			if pop <= transposeScatterMax {
				idx = out
				for k := 0; k < clim; k++ {
					dst.flat[idx] = 0
					idx += dst.w
				}
				// Source rows are trimmed, so every set bit's column is < clim.
				// Stopping at the last set bit is a third of the cost at 2 bits.
				for k := 0; pop > 0; k++ {
					for w := blk[k]; w != 0; w &= w - 1 {
						dst.flat[out+bits.TrailingZeros64(w)*dst.w] |= 1 << uint(k)
						pop--
					}
				}
				continue
			}
			for k := rlim; k < wordBits; k++ {
				blk[k] = 0
			}
			transpose64(&blk)
			idx = out
			for k := 0; k < clim; k++ {
				dst.flat[idx] = blk[k]
				idx += dst.w
			}
		}
	}
}

// transpose64 transposes a 64×64 bit block in place, LSB-first (bit c of
// a[r] is column c): the recursive block-swap of Hacker's Delight §7-3,
// adjusted for the LSB-first layout — at each level it exchanges the
// high-column half of the low rows with the low-column half of the high
// rows within every 2j×2j tile.
func transpose64(a *[64]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j, mask = j>>1, mask^(mask<<(j>>1)) {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & mask
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}

// Counts is a bit-sliced array of n small counters: plane p holds bit p
// of every counter, so counter i is scattered across the planes at bit
// position i. The two kernel operations — decrement every counter in a
// mask, and reduce a candidate set to those with the minimum count —
// cost O(planes · n/64) word operations instead of O(n) per-counter
// updates. This is the representation behind the LCF rule: nrq (and the
// distributed scheduler's ngt) live here, so "requester with the fewest
// outstanding requests" is a plane-wise prune rather than a scan.
type Counts struct {
	n      int
	planes []*Vector
	z, z2  *Vector // min-select double buffer
}

// NewCounts returns n zeroed counters able to hold values in [0, max].
func NewCounts(n, max int) *Counts {
	if max < 1 {
		max = 1
	}
	c := &Counts{n: n, planes: make([]*Vector, bits.Len(uint(max))), z: New(n), z2: New(n)}
	for p := range c.planes {
		c.planes[p] = New(n)
	}
	return c
}

// Len returns the number of counters.
func (c *Counts) Len() int { return c.n }

// Set assigns counter i to v, which must fit the planes.
func (c *Counts) Set(i, v int) {
	if v < 0 || v >= 1<<uint(len(c.planes)) {
		panic("bitvec: count out of range")
	}
	wi, m := i>>6, uint64(1)<<uint(i&63)
	_ = c.planes[0].words[wi] // one bounds check for the plane loop
	for p, pl := range c.planes {
		if v>>uint(p)&1 == 1 {
			pl.words[wi] |= m
		} else {
			pl.words[wi] &^= m
		}
	}
}

// Get returns counter i.
func (c *Counts) Get(i int) int {
	wi, sh := i>>6, uint(i&63)
	v := 0
	for p, pl := range c.planes {
		v |= int(pl.words[wi]>>sh&1) << uint(p)
	}
	return v
}

// Reset zeroes every counter.
func (c *Counts) Reset() {
	for _, pl := range c.planes {
		pl.Reset()
	}
}

// IncMasked increments counter i for every set bit i of mask. The result
// must fit the planes: a counter at the plane maximum would overflow
// silently. Amortized over a run of increments the carry chain touches
// O(1) planes per word, so summing n single-bit vectors into the counters
// costs O(n · n/64) word operations — the bulk-initialization path for
// "nrq[i] = number of requests of initiator i".
func (c *Counts) IncMasked(mask *Vector) {
	for k := range mask.words {
		carry := mask.words[k]
		if carry == 0 {
			continue
		}
		for _, pl := range c.planes {
			t := pl.words[k]
			pl.words[k] = t ^ carry
			carry &= t
			if carry == 0 {
				break
			}
		}
	}
}

// SumRows sets counter j to the number of rows of m whose bit j is set
// (the column sums of m) — equivalent to Reset followed by IncMasked of
// every row, but walking one word-column at a time with the plane words
// held in registers, so the bulk initialization touches each plane word
// exactly once. Sums beyond the plane capacity lose their carry exactly
// as IncMasked would.
func (c *Counts) SumRows(m *Matrix) {
	if m.n != c.n {
		panic("bitvec: counts/matrix dimension mismatch")
	}
	np := len(c.planes)
	if np > 16 {
		// Counters wider than 16 planes don't fit the register block;
		// fall back to the amortized per-row path.
		c.Reset()
		for _, r := range m.rows {
			c.IncMasked(r)
		}
		return
	}
	var pl [16]uint64
	for k := 0; k < m.w; k++ {
		for p := 0; p < np; p++ {
			pl[p] = 0
		}
		idx := k
		for r := 0; r < m.n; r++ {
			carry := m.flat[idx]
			idx += m.w
			for p := 0; carry != 0 && p < np; p++ {
				t := pl[p]
				pl[p] = t ^ carry
				carry &= t
			}
		}
		for p := 0; p < np; p++ {
			c.planes[p].words[k] = pl[p]
		}
	}
}

// DecMasked decrements counter i for every set bit i of mask. Every
// masked counter must be ≥ 1: the borrow of a 0 counter would ripple
// into the high planes (the kernels guarantee this — a requester in a
// resource's candidate column holds at least that one request).
func (c *Counts) DecMasked(mask *Vector) {
	for k := range mask.words {
		b := mask.words[k]
		if b == 0 {
			continue
		}
		for _, pl := range c.planes {
			t := pl.words[k]
			pl.words[k] = t ^ b
			b &= ^t
			if b == 0 {
				break
			}
		}
	}
}

// MinSelectInto reduces cand to the candidates whose counter is minimal,
// writes the result to dst (dst must not alias cand), and returns that
// minimal counter value: the word-parallel argmin. With an empty cand,
// dst comes back empty and the returned value is meaningless. Counters
// of bits outside cand are ignored.
func (c *Counts) MinSelectInto(dst, cand *Vector) int {
	// Double-buffer the shrinking candidate set so each plane costs one
	// masked AND pass, with a single copy out at the end.
	cur, next := c.z.words, c.z2.words
	copy(cur, cand.words)
	min := 0
	for p := len(c.planes) - 1; p >= 0; p-- {
		pw := c.planes[p].words
		any := uint64(0)
		for k := range cur {
			w := cur[k] &^ pw[k]
			next[k] = w
			any |= w
		}
		if any != 0 {
			// Some candidate has bit p clear: all bit-p-set candidates
			// are strictly larger and leave the running.
			cur, next = next, cur
		} else {
			// Every surviving candidate has bit p set, so it is set in
			// the minimum too.
			min |= 1 << uint(p)
		}
	}
	copy(dst.words, cur)
	return min
}
