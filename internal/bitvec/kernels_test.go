package bitvec

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// randVec returns a random vector of width n with roughly density·n bits.
func randVec(r *rand.Rand, n int, density float64) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

// The widths every kernel property test sweeps: single-word, exact
// word multiples, and the off-by-one widths where masking bugs live.
var kernelWidths = []int{1, 2, 3, 7, 31, 63, 64, 65, 127, 128, 129, 256}

func TestAndIntoAndNotInto(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range kernelWidths {
		for trial := 0; trial < 20; trial++ {
			a, b := randVec(r, n, 0.4), randVec(r, n, 0.4)
			got, gotNot := New(n), New(n)
			got.AndInto(a, b)
			gotNot.AndNotInto(a, b)
			for i := 0; i < n; i++ {
				if got.Get(i) != (a.Get(i) && b.Get(i)) {
					t.Fatalf("n=%d AndInto bit %d", n, i)
				}
				if gotNot.Get(i) != (a.Get(i) && !b.Get(i)) {
					t.Fatalf("n=%d AndNotInto bit %d", n, i)
				}
			}
			if got.AndCount(a) != got.PopCount() {
				t.Fatalf("n=%d AndCount(subset) != PopCount", n)
			}
			if a.AndAny(b) != (got.PopCount() > 0) {
				t.Fatalf("n=%d AndAny disagrees with AndInto", n)
			}
		}
	}
}

func TestFirstSetFromAnd(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range kernelWidths {
		for trial := 0; trial < 40; trial++ {
			a, b := randVec(r, n, 0.2), randVec(r, n, 0.4)
			from := r.Intn(2*n) - n // exercise out-of-range offsets too
			got := a.FirstSetFromAnd(b, from)
			// Reference: circular bit scan.
			want := -1
			start := ((from % n) + n) % n
			for k := 0; k < n; k++ {
				i := (start + k) % n
				if a.Get(i) && b.Get(i) {
					want = i
					break
				}
			}
			if got != want {
				t.Fatalf("n=%d from=%d: got %d want %d\na=%v\nb=%v", n, from, got, want, a, b)
			}
		}
	}
}

// TestFirstSetFromWordScan pins FirstSetFrom's word scan against a
// circular bit probe at every offset of every kernel width, in range and
// out of it, over sparse vectors whose only bits sit before, at or after
// the offset's word.
func TestFirstSetFromWordScan(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range kernelWidths {
		for trial := 0; trial < 8; trial++ {
			v := randVec(r, n, []float64{0, 0.01, 0.05, 0.5}[trial%4])
			for from := -n; from < 2*n; from++ {
				want := -1
				start := ((from % n) + n) % n
				for k := 0; k < n; k++ {
					if i := (start + k) % n; v.Get(i) {
						want = i
						break
					}
				}
				if got := v.FirstSetFrom(from); got != want {
					t.Fatalf("n=%d from=%d: got %d want %d\nv=%v", n, from, got, want, v)
				}
			}
		}
	}
}

func TestNthSet(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range kernelWidths {
		v := randVec(r, n, 0.3)
		idx := v.Indices()
		for k, want := range idx {
			if got := v.NthSet(k); got != want {
				t.Fatalf("n=%d NthSet(%d) = %d want %d", n, k, got, want)
			}
		}
		if got := v.NthSet(len(idx)); got != -1 {
			t.Fatalf("n=%d NthSet past end = %d want -1", n, got)
		}
		if got := v.NthSet(-1); got != -1 {
			t.Fatalf("NthSet(-1) = %d want -1", got)
		}
	}
}

func TestForEachAndNextSetAfter(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range kernelWidths {
		a, b := randVec(r, n, 0.3), randVec(r, n, 0.5)
		var got []int
		a.ForEachAnd(b, func(i int) { got = append(got, i) })
		var want []int
		for i := 0; i < n; i++ {
			if a.Get(i) && b.Get(i) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d ForEachAnd visited %v want %v", n, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("n=%d ForEachAnd visited %v want %v", n, got, want)
			}
		}
		// NextSetAfter chains visit exactly the set bits.
		var chain []int
		for i := a.NextSetAfter(-1); i >= 0; i = a.NextSetAfter(i) {
			chain = append(chain, i)
		}
		idx := a.Indices()
		if len(chain) != len(idx) {
			t.Fatalf("n=%d NextSetAfter chain %v want %v", n, chain, idx)
		}
	}
}

func TestTransposeInto(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range kernelWidths {
		for trial := 0; trial < 10; trial++ {
			m := NewMatrix(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if r.Intn(3) == 0 {
						m.Set(i, j)
					}
				}
			}
			tr := NewMatrix(n)
			m.TransposeInto(tr)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if tr.Get(j, i) != m.Get(i, j) {
						t.Fatalf("n=%d transpose bit (%d,%d)", n, i, j)
					}
				}
			}
			// Double transpose is the identity.
			back := NewMatrix(n)
			tr.TransposeInto(back)
			if !back.Equal(m) {
				t.Fatalf("n=%d double transpose != identity", n)
			}
			// Trim invariant: no stray bits past the width.
			for i := 0; i < n; i++ {
				if tr.Row(i).PopCount() != len(tr.Row(i).Indices()) {
					t.Fatalf("n=%d transpose row %d violates trim", n, i)
				}
			}
		}
	}
}

// fillBlocks sets, in every 64×64 block of m, the number of bits pops
// says for that block (capped at what the block can hold — edge blocks of
// a width that is not a multiple of 64 are smaller), at positions drawn
// from r.
func fillBlocks(m *Matrix, r *rand.Rand, pops func(bi, bj int) int) {
	n := m.N()
	nb := (n + wordBits - 1) / wordBits
	for bi := 0; bi < nb; bi++ {
		rows := min(wordBits, n-bi*wordBits)
		for bj := 0; bj < nb; bj++ {
			cols := min(wordBits, n-bj*wordBits)
			k := min(pops(bi, bj), rows*cols)
			for _, pos := range r.Perm(rows * cols)[:k] {
				m.Set(bi*wordBits+pos/cols, bj*wordBits+pos%cols)
			}
		}
	}
}

// TestTransposeIntoBlockPopulations pins both block paths of TransposeInto
// and the seam between them against a bit-probe transpose: every block
// empty, holding one bit, one bit either side of the scatter crossover and
// exactly at it, and full — and a mix, so a scattered block sits beside a
// butterflied one — at widths on both sides of every word boundary and of
// every smaller butterfly size, into a destination that starts with every
// bit set (the scatter path has to clear what it does not write). Below
// 64 ports the crossover is the one scatterLimit gives the matrix's
// single block.
func TestTransposeIntoBlockPopulations(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 5, 8, 9, 15, 16, 17, 32, 33, 63, 64, 65, 129, 256} {
		seam := scatterLimit(uint(bits.Len(uint(min(n, wordBits) - 1))))
		pops := []int{0, 1, max(seam-1, 0), seam, seam + 1, wordBits * wordBits}
		for c := 0; c <= len(pops); c++ {
			name := "mixed"
			pick := func(bi, bj int) int { return pops[(bi*3+bj+1)%len(pops)] }
			if c < len(pops) {
				pop := pops[c]
				name = fmt.Sprint(pop)
				pick = func(int, int) int { return pop }
			}
			m := NewMatrix(n)
			fillBlocks(m, r, pick)
			want := NewMatrix(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if m.Get(i, j) {
						want.Set(j, i)
					}
				}
			}
			got := NewMatrix(n)
			for i := 0; i < n; i++ {
				got.Row(i).SetAll()
			}
			m.TransposeInto(got)
			if !got.Equal(want) { // word equality: stray bits past the width fail too
				t.Fatalf("n=%d blocks=%s (%d bits): transpose differs from the bit probe\ngot:\n%v\nwant:\n%v",
					n, name, m.PopCount(), got, want)
			}
		}
	}
}

func TestCounts(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range kernelWidths {
		c := NewCounts(n, n)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(n + 1)
			c.Set(i, vals[i])
		}
		for i, want := range vals {
			if got := c.Get(i); got != want {
				t.Fatalf("n=%d Get(%d) = %d want %d", n, i, got, want)
			}
		}
		// DecMasked: counters under the mask drop by one (masked entries
		// forced ≥1 first), others untouched.
		mask := randVec(r, n, 0.5)
		for i := 0; i < n; i++ {
			if mask.Get(i) && vals[i] == 0 {
				vals[i] = 1 + r.Intn(n)
				c.Set(i, vals[i])
			}
		}
		c.DecMasked(mask)
		for i, v := range vals {
			want := v
			if mask.Get(i) {
				want--
			}
			if got := c.Get(i); got != want {
				t.Fatalf("n=%d after DecMasked Get(%d) = %d want %d", n, i, got, want)
			}
		}
	}
}

func TestIncMasked(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, n := range kernelWidths {
		c := NewCounts(n, n)
		vals := make([]int, n)
		// Sum a run of random single-bit masks and compare per counter.
		for round := 0; round < n; round++ {
			mask := randVec(r, n, 0.5)
			c.IncMasked(mask)
			for i := 0; i < n; i++ {
				if mask.Get(i) {
					vals[i]++
				}
			}
		}
		for i, want := range vals {
			if got := c.Get(i); got != want {
				t.Fatalf("n=%d Get(%d) = %d want %d", n, i, got, want)
			}
		}
		c.Reset()
		for i := 0; i < n; i++ {
			if c.Get(i) != 0 {
				t.Fatalf("n=%d Reset left counter %d at %d", n, i, c.Get(i))
			}
		}
	}
}

func TestSumRows(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range kernelWidths {
		m := NewMatrix(n)
		want := make([]int, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					m.Set(i, j)
					want[j]++
				}
			}
		}
		c := NewCounts(n, n)
		c.Set(0, n) // SumRows must overwrite stale state, not add to it
		c.SumRows(m, nil)
		for j := 0; j < n; j++ {
			if got := c.Get(j); got != want[j] {
				t.Fatalf("n=%d column %d: got %d want %d", n, j, got, want[j])
			}
		}
		// A row mask sums only the selected rows.
		rows := randVec(r, n, 0.4)
		for j := range want {
			want[j] = 0
			for i := 0; i < n; i++ {
				if rows.Get(i) && m.Get(i, j) {
					want[j]++
				}
			}
		}
		c.SumRows(m, rows)
		for j := 0; j < n; j++ {
			if got := c.Get(j); got != want[j] {
				t.Fatalf("n=%d masked column %d: got %d want %d", n, j, got, want[j])
			}
		}
	}
}

func TestSumMaskedAndNonZeroInto(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, n := range kernelWidths {
		c := NewCounts(n, n)
		vals := make([]int, n)
		for i := range vals {
			if r.Intn(3) > 0 {
				vals[i] = r.Intn(n + 1)
			}
			c.Set(i, vals[i])
		}
		mask := randVec(r, n, 0.5)
		wantSum := 0
		for i, v := range vals {
			if mask.Get(i) {
				wantSum += v
			}
		}
		if got := c.SumMasked(mask); got != wantSum {
			t.Fatalf("n=%d SumMasked = %d want %d", n, got, wantSum)
		}
		dst := New(n)
		dst.SetAll() // NonZeroInto must overwrite, not OR into
		c.NonZeroInto(dst, mask)
		for i, v := range vals {
			if want := mask.Get(i) && v != 0; dst.Get(i) != want {
				t.Fatalf("n=%d NonZeroInto bit %d = %v want %v (val %d)", n, i, dst.Get(i), want, v)
			}
		}
		c.NonZeroInto(mask, mask) // aliasing is allowed
		if !mask.Equal(dst) {
			t.Fatalf("n=%d aliased NonZeroInto differs", n)
		}
	}
}

func TestMinSelectInto(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range kernelWidths {
		c := NewCounts(n, n)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = 1 + r.Intn(n)
			c.Set(i, vals[i])
		}
		for trial := 0; trial < 20; trial++ {
			cand := randVec(r, n, 0.4)
			dst := New(n)
			gotMin := c.MinSelectInto(dst, cand)
			min := 1 << 30
			for i := 0; i < n; i++ {
				if cand.Get(i) && vals[i] < min {
					min = vals[i]
				}
			}
			if cand.Any() && gotMin != min {
				t.Fatalf("n=%d returned min %d want %d", n, gotMin, min)
			}
			for i := 0; i < n; i++ {
				want := cand.Get(i) && vals[i] == min
				if dst.Get(i) != want {
					t.Fatalf("n=%d bit %d: got %v want %v (min=%d val=%d)",
						n, i, dst.Get(i), want, min, vals[i])
				}
			}
			if cand.None() && dst.PopCount() != 0 {
				t.Fatalf("n=%d min-select of empty set non-empty", n)
			}
		}
		// Candidates that all hold the same count, the top value among
		// them (no plane prunes): dst is exactly cand, and cand is only
		// read.
		top := (1 << uint(bits.Len(uint(n)))) - 1
		cand := randVec(r, n, 0.5)
		for i := 0; i < n; i++ {
			if cand.Get(i) {
				c.Set(i, top)
			}
		}
		keep := cand.Clone()
		dst := FromIndices(n, 0)
		if got := c.MinSelectInto(dst, cand); cand.Any() && got != top {
			t.Fatalf("n=%d all-equal min %d want %d", n, got, top)
		}
		if !dst.Equal(cand) || !cand.Equal(keep) {
			t.Fatalf("n=%d all-equal min-select: dst %v cand %v, want both %v", n, dst, cand, keep)
		}
	}
}

func TestCountsSetRejectsOutOfRange(t *testing.T) {
	c := NewCounts(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("Set beyond plane capacity did not panic")
		}
	}()
	c.Set(0, 16)
}

// TestCountsRejectsIndexOutOfRange: in the flat backing a counter index
// past the plane's words would land in the next plane, so Set and Get
// fault on it.
func TestCountsRejectsIndexOutOfRange(t *testing.T) {
	c := NewCounts(8, 8)
	for _, i := range []int{-1, 64, 200} {
		for name, op := range map[string]func(){
			"Set": func() { c.Set(i, 1) },
			"Get": func() { c.Get(i) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) on 8 counters did not panic", name, i)
					}
				}()
				op()
			}()
		}
	}
}

// load09Density is the share of request-matrix bits set in a lockstep
// runtime.Engine under uniform Bernoulli load 0.9 with lcf_central_rr —
// mean occupied VOQs 71 of 256, 348 of 4 096 and 1 550 of 65 536 over
// 15 000 slots — which is the matrix the engine workloads hand
// TransposeInto every slot.
var load09Density = map[int]float64{16: 0.276, 64: 0.085, 256: 0.024}

// benchmarkTranspose times TransposeInto at width n over the fills a
// switch produces — the two bits of an almost idle one, the occupancy of
// one under load, a full matrix — and, where a block is a whole matrix
// (n = 64), over exact populations around transposeScatterMax, which is
// the table the constant is read off: beside the parent's butterfly-only
// numbers for the same rows, scattering must still be ahead at the
// constant and the row where it stops being ahead must lie well above it.
func benchmarkTranspose(b *testing.B, n int) {
	type fill struct {
		name string
		set  func(m *Matrix, r *rand.Rand)
	}
	exactly := func(bits int) fill {
		return fill{fmt.Sprintf("bits=%d", bits), func(m *Matrix, r *rand.Rand) {
			fillBlocks(m, r, func(int, int) int { return bits })
		}}
	}
	fills := []fill{
		{"bits=2", func(m *Matrix, _ *rand.Rand) { m.Set(0, 0); m.Set(1, 1) }},
		{"load0.9", func(m *Matrix, r *rand.Rand) {
			for i := 0; i < n; i++ {
				m.Row(i).Copy(randVec(r, n, load09Density[n]))
			}
		}},
		{"full", func(m *Matrix, _ *rand.Rand) {
			for i := 0; i < n; i++ {
				m.Row(i).SetAll()
			}
		}},
	}
	if n == wordBits {
		for _, bits := range []int{transposeScatterMax / 2, transposeScatterMax, transposeScatterMax + 1, 2 * transposeScatterMax, 3 * transposeScatterMax} {
			fills = append(fills, exactly(bits))
		}
	}
	for _, f := range fills {
		b.Run(f.name, func(b *testing.B) {
			m, dst := NewMatrix(n), NewMatrix(n)
			f.set(m, rand.New(rand.NewSource(9)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TransposeInto(dst)
			}
		})
	}
}

func BenchmarkTransposeN16(b *testing.B)  { benchmarkTranspose(b, 16) }
func BenchmarkTransposeN64(b *testing.B)  { benchmarkTranspose(b, 64) }
func BenchmarkTransposeN256(b *testing.B) { benchmarkTranspose(b, 256) }
