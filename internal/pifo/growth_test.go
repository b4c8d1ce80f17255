package pifo

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitvec"
)

// refEntry is one resident entry of the reference model: a slice kept in
// push order and stable-sorted by rank, so equal ranks stay FIFO.
type refEntry struct {
	rank uint64
	val  int
}

// runQueueScript interprets ops against a Queue bounded at capacity and
// the sort.SliceStable reference side by side. Each byte is one
// operation: 0xFF drains, a multiple of 4 pops, anything else pushes
// with rank b%8 (few distinct ranks, so ties are the common case). It
// checks every result, that Push refuses exactly at Cap(), and that the
// backing array only ever grows, by doubling, and never past the bound.
func runQueueScript(t *testing.T, capacity int, ops []byte) {
	t.Helper()
	q := NewQueue[int](capacity)
	var ref []refEntry
	next := 0
	popRef := func() refEntry {
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].rank < ref[b].rank })
		head := ref[0]
		ref = ref[1:]
		return head
	}
	backing := 0
	for step, b := range ops {
		switch {
		case b == 0xFF:
			var got []int
			if n := q.Drain(func(v int) { got = append(got, v) }); n != len(ref) {
				t.Fatalf("step %d: Drain returned %d, want %d", step, n, len(ref))
			}
			for k := 0; len(ref) > 0; k++ {
				if want := popRef(); got[k] != want.val {
					t.Fatalf("step %d: Drain[%d] = %d, want %d (rank %d)", step, k, got[k], want.val, want.rank)
				}
			}
		case b%4 == 0:
			v, r, ok := q.Pop()
			if ok != (len(ref) > 0) {
				t.Fatalf("step %d: Pop ok=%v with %d resident", step, ok, len(ref))
			}
			if ok {
				if want := popRef(); v != want.val || r != want.rank {
					t.Fatalf("step %d: Pop = (%d, rank %d), want (%d, rank %d)", step, v, r, want.val, want.rank)
				}
			}
		default:
			rank := uint64(b % 8)
			ok := q.Push(next, rank)
			if ok != (len(ref) < q.Cap()) {
				t.Fatalf("step %d: Push ok=%v at %d of %d", step, ok, len(ref), q.Cap())
			}
			if ok {
				ref = append(ref, refEntry{rank: rank, val: next})
				next++
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		if c := cap(q.heap); c != backing {
			grown := 2 * backing
			if grown < initialHeap {
				grown = initialHeap
			}
			if grown > capacity {
				grown = capacity
			}
			if c != grown {
				t.Fatalf("step %d: backing array went %d → %d, want %d (bound %d)", step, backing, c, grown, capacity)
			}
			backing = c
		}
	}
}

// TestQueueGrowth walks queues of assorted bounds — below, at and
// between the doubling sizes — from empty to full and back: every
// doubling boundary is crossed with entries resident, the bound refuses
// exactly one push past Cap(), and a drained queue serves again from
// the backing array it kept.
func TestQueueGrowth(t *testing.T) {
	for _, capacity := range []int{1, 3, 4, 5, 8, 9, 37, 64, 256} {
		var ops []byte
		for k := 0; k <= capacity; k++ { // one past the bound
			ops = append(ops, byte(1+(k*5)%7))
		}
		for k := 0; k < capacity/2; k++ {
			ops = append(ops, 0)
		}
		for k := 0; k <= capacity; k++ {
			ops = append(ops, byte(1+(k*3)%7))
		}
		ops = append(ops, 0xFF, 3, 2, 1, 0, 0, 0, 0)
		runQueueScript(t, capacity, ops)
	}
	rnd := rand.New(rand.NewSource(16))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 400)
		rnd.Read(ops)
		runQueueScript(t, 1+rnd.Intn(48), ops)
	}
}

// FuzzQueueOrder lets the fuzzer pick the bound and the operation
// script; see runQueueScript for the contract checked.
func FuzzQueueOrder(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 5, 6, 0, 0, 0xFF, 7})
	f.Add(uint8(37), []byte{9, 9, 9, 9, 9, 1, 1, 1, 1, 0, 13, 0xFF, 0xFF, 1, 0})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		runQueueScript(t, 1+int(capacity), ops)
	})
}

// TestBankOccupancy drives random pushes, pops and drains over a small
// bank and checks after every operation that bit (i, j) of the
// occupancy rows is set exactly when queue (i, j) holds an entry, and
// that Ready is the occupied row minus the blocked set.
func TestBankOccupancy(t *testing.T) {
	const n, capacity = 5, 6
	b := NewBank[int](n, capacity, false)
	rnd := rand.New(rand.NewSource(5))
	blocked := bitvec.New(n)
	for step := 0; step < 5000; step++ {
		i, j := rnd.Intn(n), rnd.Intn(n)
		before := b.Len(i, j)
		switch op := rnd.Intn(10); {
		case op < 6:
			if ok := b.Push(i, j, step, uint64(rnd.Intn(4))); ok != (before < capacity) {
				t.Fatalf("step %d: Push(%d,%d) ok=%v at %d of %d", step, i, j, ok, before, capacity)
			}
		case op < 9:
			if _, _, ok := b.Pop(i, j); ok != (before > 0) {
				t.Fatalf("step %d: Pop(%d,%d) ok=%v with %d queued", step, i, j, ok, before)
			}
		default:
			if got := b.Drain(i, j, func(int) {}); got != before {
				t.Fatalf("step %d: Drain(%d,%d) = %d, want %d", step, i, j, got, before)
			}
		}
		blocked.SetTo(rnd.Intn(n), rnd.Intn(2) == 0)
		for r := 0; r < n; r++ {
			ready := b.Ready(r, blocked)
			for c := 0; c < n; c++ {
				occupied := b.Len(r, c) > 0
				if b.Occupied(r).Get(c) != occupied {
					t.Fatalf("step %d: occupancy(%d,%d)=%v with %d queued", step, r, c, !occupied, b.Len(r, c))
				}
				if ready.Get(c) != (occupied && !blocked.Get(c)) {
					t.Fatalf("step %d: Ready(%d) bit %d = %v (occupied %v, blocked %v)", step, r, c, ready.Get(c), occupied, blocked.Get(c))
				}
			}
		}
	}
}

// TestBankReserve pins the prealloc contract: a reserving bank holds
// every queue's full backing array from the start, so Push never
// allocates.
func TestBankReserve(t *testing.T) {
	b := NewBank[int](3, 100, true)
	for k := range b.queues {
		if c := cap(b.queues[k].heap); c != 100 {
			t.Fatalf("queue %d: backing array %d in a reserving bank, want 100", k, c)
		}
	}
	if allocs := testing.AllocsPerRun(90, func() { b.Push(1, 2, 1, 1) }); allocs != 0 {
		t.Fatalf("%v allocs/op pushing into a reserved queue, want 0", allocs)
	}
}
