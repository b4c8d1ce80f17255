package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func mkpkt(id uint64) *packet.Packet {
	return &packet.Packet{ID: id}
}

// TestFIFOOrder pushes an unbounded ring through several doublings and
// pops everything back in order.
func TestFIFOOrder(t *testing.T) {
	q := NewRing[*packet.Packet](0)
	const total = 1000
	for i := uint64(1); i <= total; i++ {
		if !q.Push(mkpkt(i)) {
			t.Fatalf("unbounded Push %d rejected", i)
		}
	}
	for i := uint64(1); i <= total; i++ {
		if p, ok := q.Pop(); !ok || p.ID != i {
			t.Fatalf("Pop = %v,%v, want ID %d", p, ok, i)
		}
	}
	if p, ok := q.Pop(); ok || p != nil {
		t.Fatal("Pop on empty succeeded")
	}
}

func TestFIFOCapacity(t *testing.T) {
	q := NewRing[*packet.Packet](3)
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on a fresh ring succeeded")
	}
	for i := uint64(1); i <= 3; i++ {
		if !q.Push(mkpkt(i)) {
			t.Fatalf("Push %d rejected below capacity", i)
		}
	}
	if !q.Full() {
		t.Fatal("queue not Full at capacity")
	}
	if q.Push(mkpkt(4)) {
		t.Fatal("Push accepted above capacity")
	}
	if p, _ := q.Pop(); p.ID != 1 {
		t.Fatalf("Pop = %d, want 1", p.ID)
	}
	if q.Full() {
		t.Fatal("queue still Full after Pop")
	}
	if !q.Push(mkpkt(5)) {
		t.Fatal("Push rejected after freeing space")
	}
	for _, id := range []uint64{2, 3, 5} {
		if p, ok := q.Pop(); !ok || p.ID != id {
			t.Fatalf("Pop = %v,%v, want %d", p, ok, id)
		}
	}
}

func TestFIFOPeek(t *testing.T) {
	q := NewRing[*packet.Packet](0)
	if p, ok := q.Peek(); ok || p != nil {
		t.Fatal("Peek on empty succeeded")
	}
	q.Push(mkpkt(7))
	q.Push(mkpkt(8))
	if p, ok := q.Peek(); !ok || p.ID != 7 {
		t.Fatalf("Peek = %v, want 7", p)
	}
	if q.Len() != 2 {
		t.Fatal("Peek consumed an element")
	}
}

func TestFIFOWrapAround(t *testing.T) {
	// Interleave pushes and pops so head wraps the ring several times.
	q := NewRing[*packet.Packet](0)
	next := uint64(1)
	expect := uint64(1)
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			q.Push(mkpkt(next))
			next++
		}
		for i := 0; i < 2; i++ {
			p, _ := q.Pop()
			if p.ID != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, p.ID, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		p, _ := q.Pop()
		if p.ID != expect {
			t.Fatalf("drain: Pop = %d, want %d", p.ID, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained to %d, want %d", expect, next)
	}
}

// TestFIFOPushFront pins PushFront's ordering and its capacity contract:
// it grows rather than refuses, so a caller that may have refilled the
// ring checks Full first.
func TestFIFOPushFront(t *testing.T) {
	q := NewRing[*packet.Packet](3)
	q.Push(mkpkt(1))
	q.Push(mkpkt(2))
	q.PushFront(mkpkt(9))
	if !q.Full() {
		t.Fatal("ring not Full after PushFront reached capacity")
	}
	q.PushFront(mkpkt(10))
	if q.Len() != 4 || !q.Full() || q.Push(mkpkt(11)) {
		t.Fatalf("PushFront past the bound: Len %d, Full %v", q.Len(), q.Full())
	}
	want := []uint64{10, 9, 1, 2}
	for _, id := range want {
		if p, ok := q.Pop(); !ok || p.ID != id {
			t.Fatalf("Pop = %v, want %d", p, id)
		}
	}
	// PushFront on an empty queue behaves like Push.
	q2 := NewRing[*packet.Packet](0)
	q2.PushFront(mkpkt(5))
	if p, _ := q2.Pop(); p.ID != 5 {
		t.Fatal("PushFront on empty")
	}
	// Wrap-around: PushFront with the head at index 0 wraps it to the
	// buffer's end; PushFront into a full buffer grows it.
	q3 := NewRing[*packet.Packet](0)
	for i := uint64(1); i <= 8; i++ {
		q3.Push(mkpkt(i))
	}
	q3.PushFront(mkpkt(99))
	for i := uint64(9); i <= 15; i++ { // fills the 16-slot buffer
		q3.Push(mkpkt(i))
	}
	q3.PushFront(mkpkt(98))
	want = []uint64{98, 99, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for _, id := range want {
		if p, ok := q3.Pop(); !ok || p.ID != id {
			t.Fatalf("wrapped PushFront: Pop = %v, want %d", p, id)
		}
	}
}

// TestFIFODrain pops a ring empty: items leave in order and every slot
// they vacated is zeroed, so a pointer ring keeps no packet alive.
func TestFIFODrain(t *testing.T) {
	q := NewRing[*packet.Packet](0)
	for i := uint64(1); i <= 5; i++ {
		q.Push(mkpkt(i))
	}
	var got []uint64
	for p, ok := q.Pop(); ok; p, ok = q.Pop() {
		got = append(got, p.ID)
	}
	if q.Len() != 0 || len(got) != 5 {
		t.Fatalf("drained %v, %d left", got, q.Len())
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("drain order %v", got)
		}
	}
	for k, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds packet %d after drain", k, p.ID)
		}
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(-1) did not panic")
		}
	}()
	NewRing[int](-1)
}

func TestSmallCapacityNoOvergrow(t *testing.T) {
	q := NewRing[*packet.Packet](2)
	q.Push(mkpkt(1))
	q.Push(mkpkt(2))
	if q.Push(mkpkt(3)) {
		t.Fatal("capacity 2 accepted 3 packets")
	}
	if len(q.buf) != 2 {
		t.Fatalf("capacity-2 ring holds a %d-slot buffer", len(q.buf))
	}
}

// TestFIFOModelEquivalence compares the ring buffer against a reference
// slice-based queue under a random operation sequence.
func TestFIFOModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capLimit := r.Intn(8) // 0..7; 0 = unbounded
		q := NewRing[*packet.Packet](capLimit)
		var model []*packet.Packet
		id := uint64(0)
		for op := 0; op < 500; op++ {
			switch r.Intn(3) {
			case 0, 1: // push twice as often as pop
				id++
				p := mkpkt(id)
				accepted := q.Push(p)
				wantAccept := capLimit == 0 || len(model) < capLimit
				if accepted != wantAccept {
					return false
				}
				if accepted {
					model = append(model, p)
				}
			case 2:
				p, ok := q.Pop()
				if len(model) == 0 {
					if ok || p != nil {
						return false
					}
				} else {
					if !ok || p != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
			if _, ok := q.Peek(); ok != (len(model) > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRing drives a ring with a byte script — each byte one Push, Pop,
// PushFront or Peek — and checks every step against a slice model: order,
// Len, Full, Push refusals, empty Pop/Peek, and (white-box) that no slot
// outside the live window still references an item.
func FuzzRing(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 1, 2, 3, 1, 1, 1, 3})
	f.Add(uint8(1), []byte{0, 0, 2, 1, 1, 1, 3, 0, 2, 2})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 1, 1, 1, 1, 1})
	f.Add(uint8(33), []byte("push pop front peek, thirty-three deep"))
	f.Fuzz(func(t *testing.T, capSel uint8, script []byte) {
		capLimit := int(capSel) % 34 // 0 = unbounded, else 1..33
		q := NewRing[*int](capLimit)
		var model []*int
		for step, b := range script {
			v := new(int)
			*v = step
			switch b % 4 {
			case 0:
				want := capLimit == 0 || len(model) < capLimit
				if got := q.Push(v); got != want {
					t.Fatalf("step %d: Push accepted %v at Len %d, cap %d", step, got, len(model), capLimit)
				}
				if want {
					model = append(model, v)
				}
			case 1:
				got, ok := q.Pop()
				if len(model) == 0 {
					if ok || got != nil {
						t.Fatalf("step %d: Pop on empty = %v,%v", step, got, ok)
					}
					break
				}
				if !ok || got != model[0] {
					t.Fatalf("step %d: Pop = %v,%v, want %d", step, got, ok, *model[0])
				}
				model = model[1:]
			case 2:
				q.PushFront(v)
				model = append([]*int{v}, model...)
			case 3:
				got, ok := q.Peek()
				if len(model) == 0 {
					if ok || got != nil {
						t.Fatalf("step %d: Peek on empty = %v,%v", step, got, ok)
					}
				} else if !ok || got != model[0] {
					t.Fatalf("step %d: Peek = %v,%v, want %d", step, got, ok, *model[0])
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("step %d: Len %d, model %d", step, q.Len(), len(model))
			}
			if want := capLimit > 0 && len(model) >= capLimit; q.Full() != want {
				t.Fatalf("step %d: Full %v at Len %d, cap %d", step, q.Full(), len(model), capLimit)
			}
			for k := range q.buf {
				live := (k-q.head+len(q.buf))&(len(q.buf)-1) < q.len
				if !live && q.buf[k] != nil {
					t.Fatalf("step %d: vacated slot %d still holds item %d", step, k, *q.buf[k])
				}
			}
		}
		for k, want := range model {
			if got, _ := q.Pop(); got != want {
				t.Fatalf("final drain item %d: got %v, want %d", k, got, *want)
			}
		}
	})
}

func BenchmarkRingPushPop(b *testing.B) {
	q := NewRing[*packet.Packet](256)
	p := mkpkt(1)
	for i := 0; i < b.N; i++ {
		q.Push(p)
		q.Pop()
	}
}
