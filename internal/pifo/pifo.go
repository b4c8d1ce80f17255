// Package pifo implements a bounded push-in-first-out (PIFO) priority
// queue and the pluggable rank functions that program it.
//
// A PIFO ("Programmable Packet Scheduling at Line Rate", arXiv:1602.06045)
// separates scheduling *mechanism* from *policy*: the queue always
// dequeues the entry with the smallest rank, and the scheduling
// discipline lives entirely in the function that assigns ranks at push
// time. One data structure therefore expresses strict priority,
// weighted-fair queuing and earliest-deadline-first — the "universal"
// abstraction of arXiv:1510.03551 — without the switch core knowing
// which is active.
//
// The runtime instantiates one Queue (in a Bank) plus one Ranker per
// (input, output) pair, in front of the corresponding VOQ: frames wait
// in rank order in the PIFO and trickle into the (depth-limited) VOQ
// head, so the rank decision is taken as late as possible. A queue's
// heap grows on demand toward its capacity bound and never shrinks, so
// n² queues cost memory in proportion to the frames they have held, not
// to n²·capacity; once a queue is at its working size Push and Pop are
// allocation-free, and the decision benchmark pins 0 allocs/op.
package pifo

import "fmt"

// entry is one queued item: the frame payload plus the rank assigned at
// push time and the push sequence number used to break rank ties FIFO.
type entry[T any] struct {
	rank uint64
	seq  uint64
	val  T
}

// Queue is a bounded PIFO: Push inserts with a caller-supplied rank,
// Pop removes the entry with the smallest rank (FIFO among equal
// ranks). The backing heap starts empty and doubles up to the capacity
// bound as entries arrive (the queue.Ring policy); it never
// shrinks, so a queue that has reached its working size — or one a
// reserving Bank sized up front — pushes and pops without allocating.
// Not safe for concurrent use — the runtime guards each queue with its
// input's shard lock, like the VOQs behind it.
type Queue[T any] struct {
	heap []entry[T]
	cap  int
	seq  uint64
}

// initialHeap is the backing size of a queue's first allocation (then
// 8, 16, … up to the bound).
const initialHeap = 4

// NewQueue returns an empty PIFO holding at most capacity entries.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("pifo: non-positive capacity %d", capacity))
	}
	return &Queue[T]{cap: capacity}
}

// grow doubles the backing heap, from initialHeap and up to the bound.
func (q *Queue[T]) grow() {
	c := 2 * cap(q.heap)
	if c < initialHeap {
		c = initialHeap
	}
	if c > q.cap {
		c = q.cap
	}
	q.resize(c)
}

// resize moves the heap to a backing array of c ≥ Len() entries.
func (q *Queue[T]) resize(c int) {
	nh := make([]entry[T], len(q.heap), c)
	copy(nh, q.heap)
	q.heap = nh
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.heap) }

// Cap returns the configured capacity.
func (q *Queue[T]) Cap() int { return q.cap }

// Push inserts v with the given rank. It returns false (and queues
// nothing) when the queue is full — the caller surfaces backpressure.
func (q *Queue[T]) Push(v T, rank uint64) bool {
	if len(q.heap) >= q.cap {
		return false
	}
	if len(q.heap) == cap(q.heap) {
		q.grow()
	}
	q.seq++
	q.heap = append(q.heap, entry[T]{rank: rank, seq: q.seq, val: v})
	q.siftUp(len(q.heap) - 1)
	return true
}

// Pop removes and returns the entry with the smallest rank, with its
// rank. ok is false on an empty queue.
func (q *Queue[T]) Pop() (v T, rank uint64, ok bool) {
	if len(q.heap) == 0 {
		return v, 0, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	var zero entry[T]
	q.heap[last] = zero // drop the payload reference
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return top.val, top.rank, true
}

// Peek returns the smallest-rank entry without removing it.
func (q *Queue[T]) Peek() (v T, rank uint64, ok bool) {
	if len(q.heap) == 0 {
		return v, 0, false
	}
	return q.heap[0].val, q.heap[0].rank, true
}

// Drain removes every entry in rank order, calling fn on each, and
// leaves the queue empty. Used by the fault sweep to account frames
// stranded in the class tier when a link goes down under DropStranded.
func (q *Queue[T]) Drain(fn func(T)) int {
	n := len(q.heap)
	for {
		v, _, ok := q.Pop()
		if !ok {
			return n
		}
		fn(v)
	}
}

// less orders the heap: smaller rank first, then smaller (earlier) push
// sequence so equal ranks dequeue FIFO.
func (q *Queue[T]) less(a, b int) bool {
	if q.heap[a].rank != q.heap[b].rank {
		return q.heap[a].rank < q.heap[b].rank
	}
	return q.heap[a].seq < q.heap[b].seq
}

func (q *Queue[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *Queue[T]) siftDown(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}
