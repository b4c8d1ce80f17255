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
	if uint(from) >= uint(v.n) {
		if v.n == 0 {
			return -1
		}
		from = ((from % v.n) + v.n) % v.n
	}
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
	// Wrap. Word wi holds no common bit at or after from, so the first
	// common bit in words [0, wi] is the answer.
	for k := 0; k <= wi; k++ {
		if w := v.words[k] & o.words[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
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

// transposeScatterMax is the population at or below which TransposeInto
// moves a full 64×64 block bit by bit instead of through the butterfly.
// BenchmarkTransposeN64 is the table it is read off
// (results/bench_pr20.json, parent beside change): the butterfly costs
// ~570 ns whatever the block holds; loading, clearing the destination
// and scattering costs 130 ns at 2 bits, 300 at 96 and 390 at 192 —
// about 1.4 ns a bit, which would draw level with the butterfly
// somewhere past 300 bits. The constant sits well short of that, at
// three bits per row: a block this sparse is scattered in at most 0.7 of
// the butterfly's time on a host whose timings wander by 20 %, and a
// 64-port request matrix under load (≈ 350 bits at load 0.9) stays on
// the path it has always taken. It is also one bit per word swap of that
// butterfly (6 levels of 32 swaps), which is how scatterLimit scales it
// to smaller blocks.
const transposeScatterMax = 192

// transposeMasks[l] selects the low half of every 2^(l+1)-column tile:
// the bits a butterfly level of stride 2^l keeps in the low rows.
var transposeMasks = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF,
	0x0000FFFF0000FFFF,
	0x00000000FFFFFFFF,
}

// scatterLimit returns the scatter threshold of a 2^lg × 2^lg block:
// transposeScatterMax bits per 192 word swaps, and the block's butterfly
// runs lg levels of 2^(lg−1) swaps.
func scatterLimit(lg uint) int {
	if lg == 0 {
		return 0
	}
	return transposeScatterMax * (1 << (lg - 1)) * int(lg) / (wordBits / 2 * 6)
}

// TransposeInto writes mᵀ into dst: dst bit (j,i) = m bit (i,j). Both
// matrices must have the same dimension and must not alias. The
// transpose runs 64×64 blocks through a word-parallel butterfly network
// (6·32 word swaps per block) instead of n² bit probes — it is how the
// grant phases obtain the per-resource requester columns. A block whose
// rows and columns fit in 2^lg < 64 runs only the butterfly's lower lg
// levels over its first 2^lg rows (a 16-port matrix costs 4·8 swaps, not
// 6·32). A block holding at most scatterLimit(lg) bits, counted while it
// is loaded, skips the network: its destination words are cleared and
// each set bit is written where it belongs, so a nearly empty request
// matrix costs what it holds.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if m.n != dst.n {
		panic("bitvec: transpose dimension mismatch")
	}
	nb := (m.n + wordBits - 1) / wordBits
	var blk [wordBits]uint64
	for bi := 0; bi < nb; bi++ {
		rlim := min(m.n-bi<<6, wordBits)
		for bj := 0; bj < nb; bj++ {
			clim := min(m.n-bj<<6, wordBits)
			idx := bi<<6*m.w + bj
			pop := 0
			for k := 0; k < rlim; k++ {
				blk[k] = m.flat[idx]
				pop += bits.OnesCount64(blk[k])
				idx += m.w
			}
			lg := uint(bits.Len(uint(max(rlim, clim) - 1)))
			out := bj<<6*dst.w + bi // dst word of the block's column 0
			if pop <= scatterLimit(lg) {
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
			for k := rlim; k < 1<<lg; k++ {
				blk[k] = 0
			}
			transposeBlock(&blk, lg)
			idx = out
			for k := 0; k < clim; k++ {
				dst.flat[idx] = blk[k]
				idx += dst.w
			}
		}
	}
}

// transposeBlock transposes the 2^lg × 2^lg block in the first 2^lg
// words of a in place, LSB-first (bit c of a[r] is column c): the
// recursive block-swap of Hacker's Delight §7-3, adjusted for the
// LSB-first layout — at each level it exchanges the high-column half of
// the low rows with the low-column half of the high rows within every
// 2j×2j tile. Bits at columns ≥ 2^lg must be zero; lg = 6 is the full
// 64×64 network.
func transposeBlock(a *[64]uint64, lg uint) {
	size := uint(1) << lg
	for l := int(lg) - 1; l >= 0; l-- {
		j, mask := uint(1)<<uint(l), transposeMasks[l]
		for k := uint(0); k < size; k = (k + j + 1) &^ j {
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
//
// The planes share one flat backing, plane p at words [p·w, (p+1)·w)
// with w words per plane, so walking the planes of one word is a stride
// through one slice instead of a pointer load per plane.
type Counts struct {
	n      int
	w      int      // words per plane
	np     int      // plane count
	planes []uint64 // np planes of w words, back to back
	z      []uint64 // MinSelectInto's second buffer, w words
}

// NewCounts returns n zeroed counters able to hold values in [0, max].
func NewCounts(n, max int) *Counts {
	if max < 1 {
		max = 1
	}
	w := (n + wordBits - 1) / wordBits
	np := bits.Len(uint(max))
	return &Counts{n: n, w: w, np: np, planes: make([]uint64, np*w), z: make([]uint64, w)}
}

// Len returns the number of counters.
func (c *Counts) Len() int { return c.n }

// Set assigns counter i to v, which must fit the planes.
func (c *Counts) Set(i, v int) {
	_ = c.planes[:c.w][i>>6] // a word past the plane faults here, not in the next plane
	if v < 0 || v >= 1<<uint(c.np) {
		panic("bitvec: count out of range")
	}
	m := uint64(1) << uint(i&63)
	for k := i >> 6; k < len(c.planes); k += c.w {
		c.planes[k] = c.planes[k]&^m | -uint64(v&1)&m
		v >>= 1
	}
}

// Get returns counter i.
func (c *Counts) Get(i int) int {
	_ = c.planes[:c.w][i>>6] // a word past the plane faults here, not in the next plane
	sh := uint(i & 63)
	v := 0
	for p, k := 0, i>>6; k < len(c.planes); p, k = p+1, k+c.w {
		v |= int(c.planes[k]>>sh&1) << uint(p)
	}
	return v
}

// Reset zeroes every counter.
func (c *Counts) Reset() { clear(c.planes) }

// IncMasked increments counter i for every set bit i of mask. The result
// must fit the planes: a counter at the plane maximum would overflow
// silently. Amortized over a run of increments the carry chain touches
// O(1) planes per word, so summing n single-bit vectors into the counters
// costs O(n · n/64) word operations — the bulk-initialization path for
// "nrq[i] = number of requests of initiator i".
func (c *Counts) IncMasked(mask *Vector) {
	for k, carry := range mask.words {
		for idx := k; carry != 0 && idx < len(c.planes); idx += c.w {
			t := c.planes[idx]
			c.planes[idx] = t ^ carry
			carry &= t
		}
	}
}

// SumRows sets counter j to the number of rows r of m whose bit j is set,
// counting only the rows r set in rows (every row when rows is nil): the
// column sums of m, or of the sub-matrix of the selected rows. It is
// equivalent to Reset followed by IncMasked of every selected row, but
// walks one word-column at a time with the plane words held in
// registers, so the bulk initialization touches each plane word exactly
// once. Sums beyond the plane capacity lose their carry exactly as
// IncMasked would.
func (c *Counts) SumRows(m *Matrix, rows *Vector) {
	if m.n != c.n || rows != nil && rows.n != m.n {
		panic("bitvec: counts/matrix dimension mismatch")
	}
	np := c.np
	if np > 16 {
		// Counters wider than 16 planes don't fit the register block;
		// fall back to the amortized per-row path.
		c.Reset()
		for r, row := range m.rows {
			if rows == nil || rows.words[r>>6]>>uint(r&63)&1 == 1 {
				c.IncMasked(row)
			}
		}
		return
	}
	var pl [16]uint64
	for k := 0; k < m.w; k++ {
		for p := 0; p < np; p++ {
			pl[p] = 0
		}
		// Visit the selected rows word by word of the row mask; a nil
		// mask selects every row of the word (the last one trimmed).
		for rw := 0; rw < m.w; rw++ {
			sel := ^uint64(0) >> uint(max(0, (rw+1)<<6-m.n))
			if rows != nil {
				sel = rows.words[rw]
			}
			for ; sel != 0; sel &= sel - 1 {
				carry := m.flat[(rw<<6+bits.TrailingZeros64(sel))*m.w+k]
				for p := 0; carry != 0 && p < np; p++ {
					t := pl[p]
					pl[p] = t ^ carry
					carry &= t
				}
			}
		}
		for p, idx := 0, k; p < np; p, idx = p+1, idx+c.w {
			c.planes[idx] = pl[p]
		}
	}
}

// SumMasked returns the sum of the counters at the set bits of mask: one
// masked popcount per plane word, weighted by the plane's bit.
func (c *Counts) SumMasked(mask *Vector) int {
	if mask.n != c.n {
		panic("bitvec: counts/mask dimension mismatch")
	}
	sum := 0
	for p, base := 0, 0; p < c.np; p, base = p+1, base+c.w {
		pc := 0
		for k, m := range mask.words {
			pc += bits.OnesCount64(c.planes[base+k] & m)
		}
		sum += pc << uint(p)
	}
	return sum
}

// NonZeroInto sets dst to the set bits of mask whose counter is not zero
// (the OR of the planes, under the mask). dst may alias mask.
func (c *Counts) NonZeroInto(dst, mask *Vector) {
	if mask.n != c.n || dst.n != c.n {
		panic("bitvec: counts/mask dimension mismatch")
	}
	for k, m := range mask.words {
		any := uint64(0)
		for idx := k; idx < len(c.planes); idx += c.w {
			any |= c.planes[idx]
		}
		dst.words[k] = m & any
	}
}

// DecMasked decrements counter i for every set bit i of mask. Every
// masked counter must be ≥ 1: the borrow of a 0 counter would ripple
// into the high planes (the kernels guarantee this — a requester in a
// resource's candidate column holds at least that one request).
func (c *Counts) DecMasked(mask *Vector) {
	for k, b := range mask.words {
		for idx := k; b != 0 && idx < len(c.planes); idx += c.w {
			t := c.planes[idx]
			c.planes[idx] = t ^ b
			b &= ^t
		}
	}
}

// MinSelectInto reduces cand to the candidates whose counter is minimal,
// writes the result to dst (dst must not alias cand), and returns that
// minimal counter value: the word-parallel argmin. With an empty cand,
// dst comes back empty and the returned value is meaningless. Counters
// of bits outside cand are ignored.
func (c *Counts) MinSelectInto(dst, cand *Vector) int {
	// Walk the planes from the top. Each plane is one pass that writes
	// the candidates with bit p clear into the free one of two buffers,
	// dst and the scratch z. If any were written, they replace the
	// candidates: every candidate with bit p set is strictly larger. If
	// none were, every candidate has bit p set, and so does the minimum.
	// The first pass reads cand itself, so cand is never copied in; the
	// survivors are copied out only when they end in z or are still cand.
	src := cand.words
	free, spare := dst.words[:len(src)], c.z[:len(src)]
	prunes := 0
	min := 0
	for p := c.np - 1; p >= 0; p-- {
		pw := c.planes[p*c.w:][:len(src)]
		any := uint64(0)
		for k, x := range src {
			y := x &^ pw[k]
			free[k] = y
			any |= y
		}
		if any != 0 {
			src, free, spare = free, spare, free
			prunes++
		} else {
			min |= 1 << uint(p)
		}
	}
	if prunes%2 == 0 { // src is cand or z, not dst
		out := dst.words[:len(src)]
		for k, x := range src {
			out[k] = x
		}
	}
	return min
}
