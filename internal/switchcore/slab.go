package switchcore

import "fmt"

// inputSlab is one input's VOQ buffer: a single growable slab of item
// slots shared by the input's n VOQs, each VOQ a FIFO linked through the
// slab by int32 indices. A hardware input port carves all of its VOQs out
// of one buffer memory the same way (the paper's Figure 11), so an input
// costs what it has queued, not n rings' worth of slots.
//
// A slot may also be staged: allocated and holding an item, but on no
// list until a later link puts it on one (or release frees it), so an
// item can be written once and queued later.
//
// Free slots form a LIFO list, so the slot a departure just vacated takes
// the next arrival while it is still in cache. The slab starts at
// slabInitial slots, doubles when the free list runs dry and never
// shrinks: an input allocates only while its backlog climbs to a new
// peak. Growing copies the items but keeps every index, so the VOQ links
// survive it.
//
// An inputSlab is per-input state: a concurrent driver touches input i's
// slab only under input i's lock.
type inputSlab[T any] struct {
	items []T
	next  []int32   // per slot: the next slot of its VOQ or of the free list
	voqs  []voqList // per output
	free  int32     // head of the free list; noSlot when empty
}

// voqList is one VOQ: its oldest and newest slots and its length. head
// and tail are meaningful only while length > 0.
type voqList struct {
	head, tail, length int32
}

const (
	noSlot      = -1
	slabInitial = 8
	slabMax     = 1 << 30 // int32 indices, with a doubling to spare
)

func newInputSlab[T any](n int) inputSlab[T] {
	s := inputSlab[T]{voqs: make([]voqList, n), free: noSlot}
	s.grow()
	return s
}

// grow doubles the slab (or builds its first slabInitial slots) and
// threads the new slots onto the free list, lowest index first.
func (s *inputSlab[T]) grow() {
	old := len(s.items)
	size := 2 * old
	if old == 0 {
		size = slabInitial
	}
	if size > slabMax {
		panic(fmt.Sprintf("switchcore: input slab past %d slots", slabMax))
	}
	items := make([]T, size)
	copy(items, s.items)
	next := make([]int32, size)
	copy(next, s.next)
	for k := size - 1; k >= old; k-- {
		next[k] = s.free
		s.free = int32(k)
	}
	s.items, s.next = items, next
}

// alloc takes a free slot, growing the slab if none is left, and stores v
// in it.
func (s *inputSlab[T]) alloc(v T) int32 {
	if s.free == noSlot {
		s.grow()
	}
	k := s.free
	s.free = s.next[k]
	s.items[k] = v
	return k
}

// len returns VOQ j's length.
func (s *inputSlab[T]) len(j int) int { return int(s.voqs[j].length) }

// link appends slot k, already holding its item, to VOQ j. Bounds are
// the caller's: the slab never refuses.
func (s *inputSlab[T]) link(j int, k int32) {
	q := &s.voqs[j]
	if q.length == 0 {
		q.head = k
	} else {
		s.next[q.tail] = k
	}
	q.tail = k
	q.length++
}

// release zeroes slot k, so a pointer slab releases what it held, and
// puts it at the front of the free list.
func (s *inputSlab[T]) release(k int32) {
	var zero T
	s.items[k] = zero
	s.next[k] = s.free
	s.free = k
}

// pushFront prepends v to VOQ j, making it the next pop.
func (s *inputSlab[T]) pushFront(j int, v T) {
	q := &s.voqs[j]
	k := s.alloc(v)
	if q.length == 0 {
		q.tail = k
	} else {
		s.next[k] = q.head
	}
	q.head = k
	q.length++
}

// pop removes and returns VOQ j's oldest item; ok is false on an empty
// VOQ. The vacated slot is released.
func (s *inputSlab[T]) pop(j int) (v T, ok bool) {
	q := &s.voqs[j]
	if q.length == 0 {
		return v, false
	}
	k := q.head
	v = s.items[k]
	q.head = s.next[k]
	q.length--
	s.release(k)
	return v, true
}

// drain pops VOQ j empty, handing each item to fn (when non-nil) in queue
// order, and returns how many it removed.
func (s *inputSlab[T]) drain(j int, fn func(v T)) int {
	k := 0
	for v, ok := s.pop(j); ok; v, ok = s.pop(j) {
		if fn != nil {
			fn(v)
		}
		k++
	}
	return k
}
