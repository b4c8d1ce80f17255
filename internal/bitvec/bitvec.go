// Package bitvec provides fixed-width bit vectors and square bit matrices.
//
// The switch scheduling problem manipulates n-bit request vectors (one bit
// per virtual output queue) and n×n request matrices (Section 2 of the
// paper). For narrow switches these fit in a single machine word; for wide
// switches (the distributed scheduler targets hundreds of ports) they span
// multiple words. Vector is a multi-word bit vector sized at construction
// time and never reallocated on the hot path.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-width bit vector. The width is set by New and is not
// changed by any operation; out-of-range indices panic, as they indicate a
// scheduler bug rather than a recoverable condition.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed Vector of width n bits. n must be non-negative.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a Vector of width n with the given bits set.
func FromIndices(n int, idx ...int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// Len returns the width of the vector in bits.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Set sets bit i.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetTo sets bit i to b.
func (v *Vector) SetTo(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Reset clears every bit.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// SetAll sets every bit in [0, Len).
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// trim clears the unused high bits of the last word so that PopCount and
// Equal remain exact.
func (v *Vector) trim() {
	if v.n%wordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(v.n%wordBits)) - 1
	}
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (v *Vector) None() bool { return !v.Any() }

// FirstSet returns the index of the lowest set bit, or -1 if none.
func (v *Vector) FirstSet() int {
	for i, w := range v.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextSet returns the index of the lowest set bit ≥ from, or -1 if none.
func (v *Vector) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	wi := from / wordBits
	w := v.words[wi] >> uint(from%wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for i := wi + 1; i < len(v.words); i++ {
		if v.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(v.words[i])
		}
	}
	return -1
}

// FirstSetFrom returns the index of the first set bit scanning circularly
// from offset `from` (inclusive), wrapping around; -1 if the vector is
// empty. This is the primitive behind rotating-priority (round-robin)
// arbitration in iSLIP and the LCF tie-break chain.
//
// A `from` outside [0, Len) is reduced modulo Len first. The schedulers'
// rotating pointers are always in range, and for them the scan skips the
// two integer divisions of that reduction (DESIGN.md §10).
func (v *Vector) FirstSetFrom(from int) int {
	if uint(from) >= uint(v.n) {
		if v.n == 0 {
			return -1
		}
		from = ((from % v.n) + v.n) % v.n
	}
	wi := from >> 6
	if w := v.words[wi] >> uint(from&63); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for k := wi + 1; k < len(v.words); k++ {
		if w := v.words[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	// Wrap. Word wi holds no set bit at or after from, so the first set
	// bit in words [0, wi] is the answer.
	for k := 0; k <= wi; k++ {
		if w := v.words[k]; w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// And sets v = v ∧ o. The vectors must have equal width.
func (v *Vector) And(o *Vector) {
	v.checkSame(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// AndNot sets v = v ∧ ¬o. The vectors must have equal width.
func (v *Vector) AndNot(o *Vector) {
	v.checkSame(o)
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
}

// Or sets v = v ∨ o. The vectors must have equal width.
func (v *Vector) Or(o *Vector) {
	v.checkSame(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

func (v *Vector) checkSame(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", v.n, o.n))
	}
}

// Copy copies o into v. The vectors must have equal width.
func (v *Vector) Copy(o *Vector) {
	v.checkSame(o)
	copy(v.words, o.words)
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	c := New(v.n)
	copy(c.words, v.words)
	return c
}

// Equal reports whether v and o have the same width and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the indices of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.PopCount())
	for i := v.FirstSet(); i >= 0; i = v.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// String renders the vector as a bit string, bit 0 leftmost (matching the
// row layout of the paper's request matrices).
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Matrix is an n×n bit matrix stored as n row Vectors. Row i corresponds to
// requester (initiator) i; column j to resource (target) j; a set bit means
// "requester i requests resource j" — the R[i,j] of the paper's Figure 2.
type Matrix struct {
	n    int
	rows []*Vector
	// The shared backing of all rows: row i is flat[i·w : (i+1)·w]. The
	// word-parallel transpose indexes it directly — a strided flat load
	// instead of two dependent pointer loads per gathered word.
	flat []uint64
	w    int // words per row
}

// NewMatrix returns a zeroed n×n Matrix. The rows share one flat backing
// array (row i occupies words [i·w, (i+1)·w)), so whole-matrix kernels —
// the word-parallel transpose above all — walk contiguous memory instead
// of chasing a pointer per row; each row is still a full *Vector with the
// checked bit API.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic("bitvec: non-positive matrix dimension")
	}
	w := (n + wordBits - 1) / wordBits
	flat := make([]uint64, n*w)
	m := &Matrix{n: n, rows: make([]*Vector, n), flat: flat, w: w}
	vecs := make([]Vector, n)
	for i := range m.rows {
		vecs[i] = Vector{n: n, words: flat[i*w : (i+1)*w : (i+1)*w]}
		m.rows[i] = &vecs[i]
	}
	return m
}

// MatrixFromRows builds a Matrix from a literal row description: rows[i][j]
// non-zero means bit (i,j) set. All rows must have length n = len(rows).
// Intended for tests and examples transcribing the paper's figures.
func MatrixFromRows(rows [][]int) *Matrix {
	n := len(rows)
	m := NewMatrix(n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("bitvec: row %d has length %d, want %d", i, len(r), n))
		}
		for j, x := range r {
			if x != 0 {
				m.Set(i, j)
			}
		}
	}
	return m
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// Set sets bit (i,j).
func (m *Matrix) Set(i, j int) { m.rows[i].Set(j) }

// Clear clears bit (i,j).
func (m *Matrix) Clear(i, j int) { m.rows[i].Clear(j) }

// SetTo sets bit (i,j) to b.
func (m *Matrix) SetTo(i, j int, b bool) { m.rows[i].SetTo(j, b) }

// Get reports whether bit (i,j) is set.
func (m *Matrix) Get(i, j int) bool { return m.rows[i].Get(j) }

// Row returns row i. The returned Vector aliases the matrix storage;
// mutating it mutates the matrix.
func (m *Matrix) Row(i int) *Vector { return m.rows[i] }

// ClearRow clears every bit of row i.
func (m *Matrix) ClearRow(i int) { m.rows[i].Reset() }

// ClearCol clears every bit of column j.
func (m *Matrix) ClearCol(j int) {
	for i := 0; i < m.n; i++ {
		m.rows[i].Clear(j)
	}
}

// RowCount returns the number of set bits in row i (the paper's nrq[i]).
func (m *Matrix) RowCount(i int) int { return m.rows[i].PopCount() }

// ColCount returns the number of set bits in column j (the paper's ngt[j]).
func (m *Matrix) ColCount(j int) int {
	c := 0
	for i := 0; i < m.n; i++ {
		if m.rows[i].Get(j) {
			c++
		}
	}
	return c
}

// PopCount returns the total number of set bits.
func (m *Matrix) PopCount() int {
	c := 0
	for _, r := range m.rows {
		c += r.PopCount()
	}
	return c
}

// Reset clears the whole matrix.
func (m *Matrix) Reset() {
	for _, r := range m.rows {
		r.Reset()
	}
}

// Copy copies o into m. Dimensions must match.
func (m *Matrix) Copy(o *Matrix) {
	if m.n != o.n {
		panic(fmt.Sprintf("bitvec: matrix dimension mismatch %d vs %d", m.n, o.n))
	}
	for i := range m.rows {
		m.rows[i].Copy(o.rows[i])
	}
}

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	c.Copy(m)
	return c
}

// Equal reports whether m and o have identical dimensions and bits.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i := range m.rows {
		if !m.rows[i].Equal(o.rows[i]) {
			return false
		}
	}
	return true
}

// String renders the matrix one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i, r := range m.rows {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(r.String())
	}
	return b.String()
}
