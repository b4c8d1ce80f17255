package registry

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/matching"
	"repro/internal/sched"
)

func TestAllNamesConstruct(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, 16, sched.Options{Iterations: 4, Seed: 1})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, s.Name())
		}
		if s.N() != 16 {
			t.Fatalf("New(%q).N() = %d", name, s.N())
		}
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := New("nonsense", 4, sched.Options{}); err == nil {
		t.Fatal("unknown scheduler did not error")
	}
}

func TestFigure12NamesRegistered(t *testing.T) {
	if len(Figure12Names()) != 8 {
		t.Fatalf("Figure12Names has %d entries, want 8", len(Figure12Names()))
	}
	for _, name := range Figure12Names() {
		if _, err := New(name, 4, sched.Options{}); err != nil {
			t.Fatalf("Figure 12 scheduler %q not registered: %v", name, err)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestDefaultIterations(t *testing.T) {
	// Iterations 0 must resolve to the paper's default of 4 rather than
	// panicking in the iterative constructors.
	for _, name := range []string{"lcf_dist", "lcf_dist_rr", "pim", "islip"} {
		if _, err := New(name, 8, sched.Options{}); err != nil {
			t.Fatalf("New(%q) with default options: %v", name, err)
		}
	}
}

// TestSchedulersResetTheirMatch holds the sched.Scheduler contract that
// the scheduler, not its caller, resets m. Each scheduler runs twice on
// one seeded request sequence: one twin gets a fresh match every slot,
// the other a reused match filled with a stale full matching first. The
// two must agree on every slot.
func TestSchedulersResetTheirMatch(t *testing.T) {
	const n, slots = 16, 50
	for _, name := range Names() {
		opt := sched.Options{Iterations: 4, Seed: 1}
		fresh, _ := New(name, n, opt)
		stale, _ := New(name, n, opt)
		r := rand.New(rand.NewSource(7))
		req := bitvec.NewMatrix(n)
		lens := make([][]int, n)
		for i := range lens {
			lens[i] = make([]int, n)
		}
		ctx := &sched.Context{Req: req, QueueLens: lens}
		reused := matching.NewMatch(n)
		for slot := 0; slot < slots; slot++ {
			req.Reset()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					lens[i][j] = 0
					if r.Float64() < 0.3 && (name != "fifo" || req.Row(i).PopCount() == 0) {
						req.Set(i, j) // fifo sees one head-of-line request per input
						lens[i][j] = 1 + r.Intn(8)
					}
				}
			}
			want := matching.NewMatch(n)
			fresh.Schedule(ctx, want)
			reused.Reset()
			for i := 0; i < n; i++ {
				reused.Pair(i, (i+slot+1)%n)
			}
			stale.Schedule(ctx, reused)
			if !reused.Equal(want) {
				t.Fatalf("%s slot %d: on a stale match %v, on a fresh one %v", name, slot, reused.InToOut, want.InToOut)
			}
		}
	}
}
