package pifo

import (
	"fmt"

	"repro/internal/bitvec"
)

// Bank is the n×n array of PIFOs a switch keeps in front of its VOQs —
// queue (i, j) serves input i toward output j — stored as one flat
// slice of queue headers, plus an occupancy matrix whose bit (i, j) is
// set exactly while queue (i, j) holds an entry: set by the push that
// makes it non-empty, cleared by the pop or drain that empties it. The
// matrix is the paper's request-row representation applied to the
// class tier: a slot phase finds the queues it must serve by word-
// parallel row operations instead of probing n² queue headers.
//
// Concurrency follows the queues': every method touching row i runs
// under the caller's lock for input i. Ready returns shared scratch and
// belongs to a single goroutine (the arbiter).
type Bank[T any] struct {
	n      int
	queues []Queue[T] // row-major: queue (i, j) is queues[i*n+j]
	occ    *bitvec.Matrix
	ready  *bitvec.Vector
}

// NewBank returns n×n empty PIFOs, each bounded at capacity entries.
// With reserve false the heaps grow on demand, so the bank costs what
// has been queued; with reserve true every heap is sized for capacity
// up front (n²·capacity entries) and Push never allocates.
func NewBank[T any](n, capacity int, reserve bool) *Bank[T] {
	if n <= 0 || capacity <= 0 {
		panic(fmt.Sprintf("pifo: bank of %d ports, capacity %d", n, capacity))
	}
	b := &Bank[T]{
		n:      n,
		queues: make([]Queue[T], n*n),
		occ:    bitvec.NewMatrix(n),
		ready:  bitvec.New(n),
	}
	for k := range b.queues {
		b.queues[k].cap = capacity
		if reserve {
			b.queues[k].resize(capacity)
		}
	}
	return b
}

// Push inserts v with the given rank into queue (i, j); false means the
// queue is at its bound.
func (b *Bank[T]) Push(i, j int, v T, rank uint64) bool {
	q := &b.queues[i*b.n+j]
	if !q.Push(v, rank) {
		return false
	}
	if len(q.heap) == 1 {
		b.occ.Set(i, j)
	}
	return true
}

// Pop removes the smallest-rank entry of queue (i, j).
func (b *Bank[T]) Pop(i, j int) (v T, rank uint64, ok bool) {
	q := &b.queues[i*b.n+j]
	v, rank, ok = q.Pop()
	if ok && len(q.heap) == 0 {
		b.occ.Clear(i, j)
	}
	return v, rank, ok
}

// Drain empties queue (i, j) in rank order through fn and returns the
// number of entries removed.
func (b *Bank[T]) Drain(i, j int, fn func(T)) int {
	drained := b.queues[i*b.n+j].Drain(fn)
	b.occ.Clear(i, j)
	return drained
}

// Len returns the number of entries in queue (i, j).
func (b *Bank[T]) Len(i, j int) int { return len(b.queues[i*b.n+j].heap) }

// Occupied returns input i's occupancy row: bit j set while queue
// (i, j) is non-empty. Read-only.
func (b *Bank[T]) Occupied(i int) *bitvec.Vector { return b.occ.Row(i) }

// Ready returns the queues of row i that hold an entry and are not
// blocked — Occupied(i) &^ blocked, computed a word at a time — in
// scratch that stays valid until the next call. Pushes and pops after
// the call do not show in the result.
func (b *Bank[T]) Ready(i int, blocked *bitvec.Vector) *bitvec.Vector {
	b.ready.AndNotInto(b.occ.Row(i), blocked)
	return b.ready
}
