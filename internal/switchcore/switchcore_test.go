package switchcore

import (
	"math/rand"
	"testing"

	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/sched"
)

// TestRingBasics checks the FIFO semantics of a VOQ: an empty VOQ yields
// nothing, a bounded one refuses the item past its capacity, items leave
// in arrival order, and a requeued item is the next to leave.
func TestRingBasics(t *testing.T) {
	c := New[int](2, 4)
	if _, ok := c.Dequeue(0, 1); ok {
		t.Fatal("dequeue from empty VOQ succeeded")
	}
	for k := 0; k < 4; k++ {
		if !c.Enqueue(0, 1, k) {
			t.Fatalf("enqueue %d rejected below capacity", k)
		}
	}
	if c.Enqueue(0, 1, 99) {
		t.Fatal("enqueue beyond capacity accepted")
	}
	if got := c.Len(0, 1); got != 4 {
		t.Fatalf("Len %d after refused enqueue, want 4", got)
	}
	for k := 0; k < 4; k++ {
		v, ok := c.Dequeue(0, 1)
		if !ok || v != k {
			t.Fatalf("dequeue %d: got %d,%v", k, v, ok)
		}
	}
	// Requeue makes the item the next dequeue.
	c.Enqueue(0, 1, 1)
	c.Requeue(0, 1, 0)
	if v, _ := c.Dequeue(0, 1); v != 0 {
		t.Fatalf("requeued item not dequeued first: %d", v)
	}
}

// TestRingGrowsUnbounded checks that a VOQ with capacity 0 accepts
// without bound and keeps arrival order.
func TestRingGrowsUnbounded(t *testing.T) {
	c := New[int](2, 0)
	const total = 1000
	for k := 0; k < total; k++ {
		if !c.Enqueue(1, 0, k) {
			t.Fatalf("unbounded VOQ rejected enqueue %d", k)
		}
	}
	for k := 0; k < total; k++ {
		if v, ok := c.Dequeue(1, 0); !ok || v != k {
			t.Fatalf("dequeue %d: got %d,%v", k, v, ok)
		}
	}
}

// TestIncrementalInvariants drives random enqueue/dequeue/requeue traffic
// and checks after every operation that the incrementally maintained
// occupancy matrix, queue lengths and backlogs agree with a brute-force
// reference model.
func TestIncrementalInvariants(t *testing.T) {
	const n, voqCap, ops = 5, 3, 20000
	c := New[int](n, voqCap)
	ref := make([][][]int, n) // ref[i][j] = queued values in FIFO order
	for i := range ref {
		ref[i] = make([][]int, n)
	}
	rng := rand.New(rand.NewSource(7))

	check := func(op string) {
		t.Helper()
		for i := 0; i < n; i++ {
			total := 0
			for j := 0; j < n; j++ {
				l := len(ref[i][j])
				total += l
				if c.Len(i, j) != l {
					t.Fatalf("%s: Len(%d,%d)=%d want %d", op, i, j, c.Len(i, j), l)
				}
				if c.HasBacklog(i, j) != (l > 0) {
					t.Fatalf("%s: occupancy bit (%d,%d) is %v with len %d", op, i, j, c.HasBacklog(i, j), l)
				}
				if c.OccupiedRow(i).Get(j) != (l > 0) {
					t.Fatalf("%s: OccupiedRow(%d) bit %d disagrees", op, i, j)
				}
			}
			if c.InputBacklog(i) != total {
				t.Fatalf("%s: InputBacklog(%d)=%d want %d", op, i, c.InputBacklog(i), total)
			}
		}
	}

	next := 0
	for op := 0; op < ops; op++ {
		i, j := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(3) {
		case 0: // enqueue
			accepted := c.Enqueue(i, j, next)
			wantAccept := len(ref[i][j]) < voqCap
			if accepted != wantAccept {
				t.Fatalf("Enqueue(%d,%d) accepted=%v want %v (len %d)", i, j, accepted, wantAccept, len(ref[i][j]))
			}
			if accepted {
				ref[i][j] = append(ref[i][j], next)
			}
			next++
		case 1: // dequeue
			v, ok := c.Dequeue(i, j)
			if ok != (len(ref[i][j]) > 0) {
				t.Fatalf("Dequeue(%d,%d) ok=%v with ref len %d", i, j, ok, len(ref[i][j]))
			}
			if ok {
				if v != ref[i][j][0] {
					t.Fatalf("Dequeue(%d,%d)=%d want %d (FIFO order)", i, j, v, ref[i][j][0])
				}
				ref[i][j] = ref[i][j][1:]
			}
		case 2: // dequeue then requeue (the live engine's full-output path)
			if v, ok := c.Dequeue(i, j); ok {
				c.Requeue(i, j, v)
			} else {
				ref[i][j] = nil // unchanged; keep slices canonical
			}
		}
		check("op")
	}
}

func TestSnapshotMasking(t *testing.T) {
	c := New[string](3, 0)
	c.Enqueue(0, 0, "a")
	c.Enqueue(0, 2, "b")
	c.Enqueue(1, 2, "c")
	c.Enqueue(1, 2, "d")

	c.ResetOutputMask()
	c.MaskOutput(2)
	var requested, masked int
	for i := 0; i < 3; i++ {
		r, m, _ := c.SnapshotRow(i)
		requested += r
		masked += m
	}
	if requested != 1 || masked != 2 {
		t.Fatalf("requested %d masked %d, want 1 and 2", requested, masked)
	}
	req := c.Requests()
	if !req.Get(0, 0) || req.Get(0, 2) || req.Get(1, 2) {
		t.Fatalf("masked snapshot wrong:\n%v", req)
	}
	// Occupancy is untouched by masking.
	if !c.HasBacklog(0, 2) || !c.HasBacklog(1, 2) {
		t.Fatal("masking leaked into occupancy state")
	}
	// Lengths snapshot reflects the live backlog.
	if lens := c.QueueLens(); lens[1][2] != 2 || lens[0][0] != 1 {
		t.Fatalf("queue-length snapshot %v", lens)
	}

	// Next slot without the mask: both requests reappear.
	c.ResetOutputMask()
	if got := c.SnapshotAll(); got != 3 {
		t.Fatalf("unmasked request count %d, want 3", got)
	}
}

// lensRecorder captures the scheduling context to prove the core feeds
// QueueLens to every scheduler.
type lensRecorder struct {
	n        int
	sawLens  [][]int
	sawReq   int
	schedule func(ctx *sched.Context, m *matching.Match)
}

func (s *lensRecorder) Name() string { return "lens_recorder" }
func (s *lensRecorder) N() int       { return s.n }
func (s *lensRecorder) Schedule(ctx *sched.Context, m *matching.Match) {
	s.sawLens = ctx.QueueLens
	s.sawReq = ctx.Req.PopCount()
	m.Reset()
	if s.schedule != nil {
		s.schedule(ctx, m)
	}
}

func TestScheduleProvidesQueueLens(t *testing.T) {
	c := New[int](4, 0)
	c.Enqueue(2, 1, 10)
	c.Enqueue(2, 1, 11)
	c.Enqueue(3, 0, 12)
	c.SnapshotAll()

	rec := &lensRecorder{n: 4, schedule: func(ctx *sched.Context, m *matching.Match) {
		m.Pair(2, 1)
	}}
	m := c.Schedule(rec)
	if rec.sawLens == nil {
		t.Fatal("scheduler saw nil QueueLens")
	}
	if rec.sawLens[2][1] != 2 || rec.sawLens[3][0] != 1 {
		t.Fatalf("QueueLens %v", rec.sawLens)
	}
	if rec.sawReq != 2 {
		t.Fatalf("scheduler saw %d requests, want 2", rec.sawReq)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.InToOut[2] != 1 {
		t.Fatalf("match not returned: %v", m.InToOut)
	}

	// A stale-state grant is caught by Validate.
	rec.schedule = func(ctx *sched.Context, m *matching.Match) { m.Pair(0, 3) }
	c.SnapshotAll()
	c.Schedule(rec)
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted a grant without a request")
	}
}

func TestClearRequest(t *testing.T) {
	c := New[int](2, 0)
	c.Enqueue(0, 1, 1)
	c.SnapshotAll()
	c.ClearRequest(0, 1)
	if c.Requests().Get(0, 1) {
		t.Fatal("ClearRequest did not clear the snapshot bit")
	}
	if !c.HasBacklog(0, 1) {
		t.Fatal("ClearRequest leaked into occupancy")
	}
}

func TestTotalBacklog(t *testing.T) {
	c := New[int](3, 0)
	for k := 0; k < 5; k++ {
		c.Enqueue(k%3, (k+1)%3, k)
	}
	if got := c.TotalBacklog(); got != 5 {
		t.Fatalf("TotalBacklog %d, want 5", got)
	}
}

// TestSlotPathAllocFree pins the hot-path property the drivers rely on:
// once the slabs have grown to their working size, a full slot (snapshot
// + arbitrate + dequeue + re-enqueue) performs zero heap allocations —
// with the trace emit point compiled in, whether the tracer is absent,
// attached but disabled, or actively recording.
func TestSlotPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tracer func(n int) *obs.Tracer
	}{
		{"no tracer", func(int) *obs.Tracer { return nil }},
		{"tracer disabled", func(n int) *obs.Tracer { return obs.NewTracer(n, 128) }},
		{"tracer enabled", func(n int) *obs.Tracer {
			tr := obs.NewTracer(n, 128)
			tr.Enable()
			return tr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 16
			c := New[int](n, 64)
			tr := tc.tracer(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					c.Enqueue(i, j, i*n+j)
					c.Enqueue(i, j, i*n+j)
				}
			}
			rec := &lensRecorder{n: n, schedule: func(ctx *sched.Context, m *matching.Match) {
				for i := 0; i < n; i++ {
					m.Pair(i, i)
				}
			}}
			slot := int64(0)
			allocs := testing.AllocsPerRun(200, func() {
				c.ResetOutputMask()
				c.MaskOutput(3)
				requested := c.SnapshotAll()
				grants := c.Arbitrate(rec)
				for j, i := range grants.Src {
					if i == matching.Unmatched {
						continue
					}
					if v, ok := c.Dequeue(i, j); ok {
						c.Enqueue(i, j, v)
					}
				}
				tr.EmitGrants(slot, requested, grants)
				slot++
			})
			if allocs != 0 {
				t.Fatalf("slot path allocates %.1f times per slot, want 0", allocs)
			}
		})
	}
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, cap int
	}{{"zero ports", 0, 1}, {"negative cap", 2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", tc.name)
				}
			}()
			New[int](tc.n, tc.cap)
		}()
	}
}

// BenchmarkSnapshot measures the per-slot request-matrix construction in
// isolation: the word-copy snapshot that replaced the O(n²) queue scan.
func benchmarkSnapshot(b *testing.B, n int) {
	c := New[int](n, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(100) < 60 {
				c.Enqueue(i, j, 1)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		c.SnapshotAll()
	}
}

func BenchmarkSnapshotN16(b *testing.B) { benchmarkSnapshot(b, 16) }
func BenchmarkSnapshotN64(b *testing.B) { benchmarkSnapshot(b, 64) }
