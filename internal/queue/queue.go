// Package queue provides the bounded FIFO of the simulation model (Figure
// 11 of the paper): packet queues (PQ), virtual output queues (VOQ),
// output buffers and crosspoint buffers are all bounded FIFOs, and every
// one of them in the repository is a Ring.
//
// The hot path of a simulation is enqueue/dequeue at every slot on up to n²
// queues, so the ring is a power-of-two buffer with no per-operation
// allocation once it has grown to its working size.
package queue

import "fmt"

// Ring is a bounded power-of-two ring buffer. Items are held by value of
// T, so a by-value driver (the live engine's Frame) enqueues without
// allocating and a pointer driver (the simulator's *packet.Packet) pays
// only for the pointer slot. The buffer starts small and doubles up to
// the capacity bound; once at its working size the ring never allocates
// again. The zero value is not usable: construct with NewRing or
// NewRingFull.
type Ring[T any] struct {
	buf      []T
	head     int // index of the oldest item
	len      int
	capLimit int // 0 = unbounded
}

// NewRing returns a ring bounded at capLimit items (0 = unbounded) whose
// buffer starts small and grows on demand. A negative capLimit panics.
func NewRing[T any](capLimit int) Ring[T] {
	if capLimit < 0 {
		panic(fmt.Sprintf("queue: negative capacity %d", capLimit))
	}
	initial := 16
	if capLimit > 0 && capLimit < initial {
		initial = ceilPow2(capLimit)
	}
	return Ring[T]{buf: make([]T, initial), capLimit: capLimit}
}

// NewRingFull returns a ring whose buffer is sized for capLimit up front,
// so Push never grows (and therefore never allocates): the CICQ's
// crosspoint buffers, tiny by construction, are built this way.
// capLimit must be positive — an unbounded ring has no full size to
// allocate.
func NewRingFull[T any](capLimit int) Ring[T] {
	return Ring[T]{buf: make([]T, ceilPow2(capLimit)), capLimit: capLimit}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Len returns the number of buffered items.
func (r *Ring[T]) Len() int { return r.len }

// Full reports whether the ring is at its capacity bound.
func (r *Ring[T]) Full() bool { return r.capLimit > 0 && r.len >= r.capLimit }

// at returns the buffer index k items past the head.
func (r *Ring[T]) at(k int) int { return (r.head + k) & (len(r.buf) - 1) }

func (r *Ring[T]) grow() {
	nb := make([]T, len(r.buf)*2)
	for k := 0; k < r.len; k++ {
		nb[k] = r.buf[r.at(k)]
	}
	r.buf = nb
	r.head = 0
}

// Push appends v and reports acceptance; a full ring rejects (the caller
// decides whether that is a drop or backpressure).
func (r *Ring[T]) Push(v T) bool {
	if r.Full() {
		return false
	}
	if r.len == len(r.buf) {
		r.grow()
	}
	r.buf[r.at(r.len)] = v
	r.len++
	return true
}

// Pop removes and returns the oldest item; ok is false on an empty ring.
// The vacated slot is zeroed, so a pointer ring releases what it held.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.len == 0 {
		return v, false
	}
	var zero T
	v = r.buf[r.head]
	r.buf[r.head] = zero
	r.head = r.at(1)
	r.len--
	return v, true
}

// Peek returns the oldest item without removing it; ok is false on an
// empty ring.
func (r *Ring[T]) Peek() (v T, ok bool) {
	if r.len == 0 {
		return v, false
	}
	return r.buf[r.head], true
}

// PushFront prepends v, making it the next Pop — the path that returns a
// just-popped item (a delivery that could not complete, a NACKed cell) to
// the head so order is preserved. It grows rather than rejects: a caller
// returning the item it just popped cannot exceed the bound the ring
// satisfied before the Pop, and a caller that may have refilled the ring
// since checks Full first.
func (r *Ring[T]) PushFront(v T) {
	if r.len == len(r.buf) {
		r.grow()
	}
	r.head = r.at(len(r.buf) - 1)
	r.buf[r.head] = v
	r.len++
}
