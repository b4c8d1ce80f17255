package pifo

import (
	"math/rand"
	"sort"
	"testing"
)

// TestQueuePopsInRankOrder pins the core PIFO contract: Pop always
// returns the smallest rank, FIFO among equal ranks.
func TestQueuePopsInRankOrder(t *testing.T) {
	q := NewQueue[int](64)
	ranks := []uint64{5, 1, 3, 1, 9, 0, 3, 7, 1}
	for v, r := range ranks {
		if !q.Push(v, r) {
			t.Fatalf("Push(%d, %d) refused below capacity", v, r)
		}
	}
	type popped struct {
		v    int
		rank uint64
	}
	var got []popped
	for {
		v, r, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, popped{v, r})
	}
	if len(got) != len(ranks) {
		t.Fatalf("popped %d entries, pushed %d", len(got), len(ranks))
	}
	for i := 1; i < len(got); i++ {
		if got[i].rank < got[i-1].rank {
			t.Fatalf("rank order violated at %d: %v", i, got)
		}
		// FIFO among equal ranks: values were pushed in increasing order.
		if got[i].rank == got[i-1].rank && got[i].v < got[i-1].v {
			t.Fatalf("FIFO tie-break violated at %d: %v", i, got)
		}
	}
}

// TestQueueRandomizedAgainstSort drives random push/pop interleavings
// and checks every drain against a stable sort of what was resident.
func TestQueueRandomizedAgainstSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	q := NewQueue[uint64](128)
	type item struct {
		rank uint64
		seq  int
	}
	var resident []item
	seq := 0
	for round := 0; round < 2000; round++ {
		if rnd.Intn(3) > 0 && q.Len() < q.Cap() {
			r := uint64(rnd.Intn(16))
			q.Push(r, r)
			resident = append(resident, item{rank: r, seq: seq})
			seq++
			continue
		}
		v, r, ok := q.Pop()
		if ok != (len(resident) > 0) {
			t.Fatalf("round %d: Pop ok=%v with %d resident", round, ok, len(resident))
		}
		if !ok {
			continue
		}
		sort.SliceStable(resident, func(a, b int) bool {
			if resident[a].rank != resident[b].rank {
				return resident[a].rank < resident[b].rank
			}
			return resident[a].seq < resident[b].seq
		})
		if want := resident[0]; r != want.rank || v != want.rank {
			t.Fatalf("round %d: Pop = (%d, %d), want rank %d", round, v, r, want.rank)
		}
		resident = resident[1:]
	}
}

// TestQueueBoundsAndDrain pins the capacity refusal and Drain ordering.
func TestQueueBoundsAndDrain(t *testing.T) {
	q := NewQueue[int](4)
	for i := 0; i < 4; i++ {
		if !q.Push(i, uint64(4-i)) {
			t.Fatalf("Push %d refused below capacity", i)
		}
	}
	if q.Push(99, 0) {
		t.Fatal("Push accepted beyond capacity")
	}
	if _, r, ok := q.Peek(); !ok || r != 1 {
		t.Fatalf("Peek = rank %d ok=%v, want rank 1", r, ok)
	}
	var order []int
	if n := q.Drain(func(v int) { order = append(order, v) }); n != 4 {
		t.Fatalf("Drain returned %d, want 4", n)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after Drain: %d", q.Len())
	}
	for i := 1; i < len(order); i++ {
		if order[i] > order[i-1] {
			continue
		}
		// ranks were 4,3,2,1 for values 0..3 → drain order must be 3,2,1,0
	}
	want := []int{3, 2, 1, 0}
	for i, v := range order {
		if v != want[i] {
			t.Fatalf("Drain order %v, want %v", order, want)
		}
	}
}

func testClasses() []Class {
	return []Class{
		{Name: "rt", Priority: 0, Weight: 4, SLOSlots: 16},
		{Name: "quick", Priority: 1, Weight: 2, SLOSlots: 64},
		{Name: "bulk", Priority: 2, Weight: 1},
	}
}

// TestStrictRankerOrders pins strict priority: every rt frame outranks
// every bulk frame regardless of arrival order.
func TestStrictRankerOrders(t *testing.T) {
	rk, err := NewRanker(RankStrict, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue[int](8)
	q.Push(2, rk.Rank(2, 0, -1)) // bulk first
	q.Push(0, rk.Rank(0, 1, -1)) // rt second
	q.Push(1, rk.Rank(1, 2, -1)) // quick third
	var order []int
	q.Drain(func(v int) { order = append(order, v) })
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("strict drain order %v, want [0 1 2]", order)
	}
}

// TestDeadlineRankerOrders pins EDF: earlier absolute deadlines first,
// deadline-less frames last (by priority).
func TestDeadlineRankerOrders(t *testing.T) {
	rk, err := NewRanker(RankDeadline, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue[string](8)
	q.Push("bulk-none", rk.Rank(2, 0, -1))
	q.Push("rt-late", rk.Rank(0, 0, 100))
	q.Push("quick-early", rk.Rank(1, 0, 50))
	var order []string
	q.Drain(func(v string) { order = append(order, v) })
	want := []string{"quick-early", "rt-late", "bulk-none"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("deadline drain order %v, want %v", order, want)
		}
	}
}

// TestWFQRankerShares pins the weighted-fair property: under sustained
// contention a weight-4 class drains ~4× the frames of a weight-1 class
// over any long window.
func TestWFQRankerShares(t *testing.T) {
	classes := testClasses()
	rk, err := NewRanker(RankWFQ, classes)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue[int](1024)
	// Keep all three classes saturated; serve one frame per round and
	// count services per class.
	served := make([]int, len(classes))
	backlog := make([]int, len(classes))
	push := func(ci int) {
		if q.Push(ci, rk.Rank(ci, 0, -1)) {
			backlog[ci]++
		}
	}
	for ci := range classes {
		for k := 0; k < 8; k++ {
			push(ci)
		}
	}
	for round := 0; round < 7000; round++ {
		ci, rank, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained under saturation")
		}
		rk.OnPop(rank)
		served[ci]++
		backlog[ci]--
		push(ci) // keep the class saturated
	}
	// weights 4:2:1 → expected shares 4/7, 2/7, 1/7.
	total := served[0] + served[1] + served[2]
	for ci, w := range []float64{4, 2, 1} {
		got := float64(served[ci]) / float64(total)
		want := w / 7
		if got < want*0.95 || got > want*1.05 {
			t.Fatalf("class %d served share %.3f, want %.3f ±5%% (served %v)", ci, got, want, served)
		}
	}
}

// TestWFQIdleClassCannotHoard pins the virtual-clock clamp: a class
// that was idle while others drained re-enters at the current virtual
// time instead of monopolizing the link to "catch up".
func TestWFQIdleClassCannotHoard(t *testing.T) {
	classes := []Class{
		{Name: "a", Priority: 0, Weight: 1},
		{Name: "b", Priority: 1, Weight: 1},
	}
	rk, _ := NewRanker(RankWFQ, classes)
	q := NewQueue[int](256)
	// Class a runs alone for a long stretch.
	for k := 0; k < 100; k++ {
		q.Push(0, rk.Rank(0, 0, -1))
		v, rank, _ := q.Pop()
		rk.OnPop(rank)
		_ = v
	}
	// Now both compete. With equal weights the split over the next
	// window must be ~50/50, not b-first-100-times.
	served := make([]int, 2)
	for k := 0; k < 8; k++ {
		q.Push(0, rk.Rank(0, 0, -1))
		q.Push(1, rk.Rank(1, 0, -1))
	}
	for round := 0; round < 200; round++ {
		ci, rank, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained")
		}
		rk.OnPop(rank)
		served[ci]++
		q.Push(ci, rk.Rank(ci, 0, -1))
	}
	if served[0] < 90 || served[1] < 90 {
		t.Fatalf("post-idle split %v, want ~100/100", served)
	}
}

// TestParseClasses pins the -classes flag grammar.
func TestParseClasses(t *testing.T) {
	got, err := ParseClasses("rt:0:4:16,quick:1:2:64,bulk")
	if err != nil {
		t.Fatal(err)
	}
	want := []Class{
		{Name: "rt", Priority: 0, Weight: 4, SLOSlots: 16},
		{Name: "quick", Priority: 1, Weight: 2, SLOSlots: 64},
		{Name: "bulk", Priority: 2, Weight: 1, SLOSlots: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("ParseClasses = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("class %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{
		"", "rt,rt", "RT", "rt:x", "rt:-1", "rt:0:0", "rt:0:1:-5", "rt:0:1:2:3",
	} {
		if _, err := ParseClasses(bad); err == nil {
			t.Fatalf("ParseClasses(%q) accepted", bad)
		}
	}
}

// TestRankZeroAlloc pins the hot path: Push+Rank+Pop+OnPop never
// allocate, for every registered ranker, on a queue warmed by traffic to
// its working size. The decision benchmark measures the same property
// with -benchmem; this test enforces it deterministically in the plain
// test run.
func TestRankZeroAlloc(t *testing.T) {
	classes := testClasses()
	for _, name := range Names() {
		rk, err := NewRanker(name, classes)
		if err != nil {
			t.Fatal(err)
		}
		q := NewQueue[uint64](256)
		// The measured loop holds at most 129 entries: grow there (and
		// past the last doubling below it) before measuring.
		for q.Len() < 129 {
			q.Push(0, rk.Rank(0, 10, 26))
		}
		for q.Len() > 0 {
			_, rank, _ := q.Pop()
			rk.OnPop(rank)
		}
		ci := 0
		allocs := testing.AllocsPerRun(1000, func() {
			ci = (ci + 1) % len(classes)
			q.Push(uint64(ci), rk.Rank(ci, 10, 26))
			if q.Len() > 128 {
				_, rank, _ := q.Pop()
				rk.OnPop(rank)
			}
		})
		if allocs != 0 {
			t.Errorf("ranker %s: %v allocs/op on the push/pop path, want 0", name, allocs)
		}
	}
}
