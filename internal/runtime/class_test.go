package runtime_test

import (
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/pifo"
	rt "repro/internal/runtime"
	"repro/internal/switchcore"
)

// testClassList is the three-class mix used throughout: a deadline-
// bearing real-time class, a lighter interactive class, and bulk.
func testClassList() []pifo.Class {
	return []pifo.Class{
		{Name: "rt", Priority: 0, Weight: 4, SLOSlots: 16},
		{Name: "quick", Priority: 1, Weight: 2, SLOSlots: 64},
		{Name: "bulk", Priority: 2, Weight: 1},
	}
}

// newClassEngine builds a lockstep engine with the PIFO class tier.
func newClassEngine(t *testing.T, n int, rank string, fp rt.FaultPolicy, tr *obs.Tracer) *rt.Engine {
	t.Helper()
	e, err := rt.New(rt.Config{
		N:           n,
		Scheduler:   newScheduler(t, "lcf_central_rr", n),
		VOQCap:      64,
		OutCap:      64,
		Classes:     testClassList(),
		Rank:        rank,
		FaultPolicy: fp,
		Tracer:      tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAdmitClassEndToEnd drives a three-class mix through the PIFO
// front door and the slot loop, and checks delivery, the per-class
// ledger and the snapshot section.
func TestAdmitClassEndToEnd(t *testing.T) {
	const n = 4
	e := newClassEngine(t, n, pifo.RankWFQ, rt.HoldStranded, nil)
	defer e.Close()

	injected := 0
	for round := 0; round < 12; round++ {
		for src := 0; src < n; src++ {
			class := (round + src) % 3
			if err := e.AdmitClass(src, (src+round)%n, class, uint64(injected), 0, 0); err != nil {
				t.Fatalf("AdmitClass: %v", err)
			}
			injected++
		}
		e.Tick()
	}
	delivered := drainOutputs(e)
	for s := 0; s < 256; s++ {
		e.Tick()
		delivered += drainOutputs(e)
	}
	if delivered != injected {
		t.Fatalf("delivered %d of %d admitted frames", delivered, injected)
	}

	snap := e.Snapshot()
	if snap.Classes == nil {
		t.Fatal("Snapshot.Classes nil on a class-enabled engine")
	}
	if snap.Classes.Rank != pifo.RankWFQ {
		t.Fatalf("snapshot rank = %q, want %q", snap.Classes.Rank, pifo.RankWFQ)
	}
	var admitted, del, queued int64
	for _, cs := range snap.Classes.Classes {
		if cs.Admitted != cs.Delivered {
			t.Fatalf("class %s: admitted %d != delivered %d", cs.Class, cs.Admitted, cs.Delivered)
		}
		admitted += cs.Admitted
		del += cs.Delivered
		queued += cs.Queued
	}
	if admitted != int64(injected) || del != int64(injected) || queued != 0 {
		t.Fatalf("class ledger admitted=%d delivered=%d queued=%d, want %d/%d/0", admitted, del, queued, injected, injected)
	}
}

// TestAdmitClassDisabled pins the ErrNoClasses / ErrBadClass contracts
// and the class-tier config errors.
func TestAdmitClassDisabled(t *testing.T) {
	e, err := rt.New(rt.Config{N: 4, Scheduler: newScheduler(t, "islip", 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AdmitClass(0, 1, 0, 0, 0, 0); !errors.Is(err, rt.ErrNoClasses) {
		t.Fatalf("AdmitClass on classless engine: %v, want ErrNoClasses", err)
	}
	if e.Classes() != nil {
		t.Fatal("Classes() non-nil on a classless engine")
	}
	if e.Snapshot().Classes != nil {
		t.Fatal("Snapshot.Classes non-nil on a classless engine")
	}

	// Rank without Classes is a config error, not a silent no-op.
	if _, err := rt.New(rt.Config{N: 4, Scheduler: newScheduler(t, "islip", 4), Rank: pifo.RankStrict}); err == nil {
		t.Fatal("New accepted Rank without Classes")
	}
	if _, err := rt.New(rt.Config{N: 4, Scheduler: newScheduler(t, "islip", 4), Classes: testClassList(), Rank: "nope"}); err == nil {
		t.Fatal("New accepted an unknown rank function")
	}

	ec := newClassEngine(t, 4, pifo.RankStrict, rt.HoldStranded, nil)
	defer ec.Close()
	if err := ec.AdmitClass(0, 1, 7, 0, 0, 0); !errors.Is(err, rt.ErrBadClass) {
		t.Fatalf("out-of-range class: %v, want ErrBadClass", err)
	}
}

// TestClassStrictOverridesArrival pins the tentpole property: with the
// strict ranker, high-priority frames admitted last still cross the
// fabric first, because the VOQ is a depth-1 head register fed in rank
// order each slot.
func TestClassStrictOverridesArrival(t *testing.T) {
	const n, per = 4, 8
	e := newClassEngine(t, n, pifo.RankStrict, rt.HoldStranded, nil)
	defer e.Close()

	// Bulk first, real-time last — all to the same (0,0) pair so they
	// serialize through one VOQ head.
	for k := 0; k < per; k++ {
		if err := e.AdmitClass(0, 0, 2, uint64(k), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < per; k++ {
		if err := e.AdmitClass(0, 0, 0, uint64(per+k), 0, 0); err != nil {
			t.Fatal(err)
		}
	}

	var order []int
	for s := 0; s < 4*per && len(order) < 2*per; s++ {
		e.Tick()
		for {
			select {
			case f := <-e.Output(0):
				order = append(order, f.Class)
			default:
				goto next
			}
		}
	next:
	}
	if len(order) != 2*per {
		t.Fatalf("delivered %d of %d frames", len(order), 2*per)
	}
	for k, class := range order {
		want := 0
		if k >= per {
			want = 2
		}
		if class != want {
			t.Fatalf("delivery %d is class %d, want %d (order %v)", k, class, want, order)
		}
	}
}

// TestClassSLOViolationAccounting saturates one pair with deadline-
// ranked real-time frames whose SLO budget cannot cover the queueing
// delay, and checks the violation counter and the kind=class trace
// events that mark each late delivery.
func TestClassSLOViolationAccounting(t *testing.T) {
	const n, frames = 4, 24
	tr := obs.NewTracer(n, 256)
	tr.Enable()
	e, err := rt.New(rt.Config{
		N:         n,
		Scheduler: newScheduler(t, "lcf_central_rr", n),
		Classes:   []pifo.Class{{Name: "rt", Priority: 0, Weight: 1, SLOSlots: 2}},
		Rank:      pifo.RankDeadline,
		Tracer:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for k := 0; k < frames; k++ {
		if err := e.AdmitClass(0, 0, 0, uint64(k), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
	for s := 0; s < 4*frames && delivered < frames; s++ {
		e.Tick()
		delivered += drainOutputs(e)
	}
	if delivered != frames {
		t.Fatalf("delivered %d of %d frames", delivered, frames)
	}
	// One frame crosses per slot; everything after the first two is late.
	viol := e.ClassViolations(0)
	if viol < frames/2 {
		t.Fatalf("violations = %d, want at least %d", viol, frames/2)
	}

	classEvents := 0
	for _, ev := range tr.Drain() {
		if ev.Kind != "class" {
			continue
		}
		classEvents++
		if ev.Class != 0 || ev.Port != 0 {
			t.Fatalf("class event class=%d port=%d, want 0/0", ev.Class, ev.Port)
		}
		if ev.Latency <= 2 {
			t.Fatalf("violation event with latency %d ≤ SLO budget 2", ev.Latency)
		}
	}
	if int64(classEvents) != viol {
		t.Fatalf("drained %d class events, violations counter says %d", classEvents, viol)
	}

	h := e.ClassLatency(0)
	if h == nil || h.Snapshot().Total != int64(frames) {
		t.Fatalf("latency histogram missing deliveries: %+v", h)
	}
}

// TestClassStrandedDropConservation fails an output under DropStranded
// and checks the per-class ledger stays conserved: every admitted frame
// is delivered, dropped, or still queued.
func TestClassStrandedDropConservation(t *testing.T) {
	const n = 4
	e := newClassEngine(t, n, pifo.RankStrict, rt.DropStranded, nil)
	defer e.Close()

	for k := 0; k < 16; k++ {
		if err := e.AdmitClass(0, 1, k%3, uint64(k), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	e.Tick() // one frame may cross before the fault lands
	got := drainOutputs(e)
	if err := e.FailOutput(1); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		e.Tick()
		got += drainOutputs(e)
	}

	snap := e.Snapshot()
	var admitted, delivered, dropped, queued int64
	for _, cs := range snap.Classes.Classes {
		admitted += cs.Admitted
		delivered += cs.Delivered
		dropped += cs.Dropped
		queued += cs.Queued
	}
	if admitted != 16 || delivered+dropped+queued != admitted {
		t.Fatalf("class ledger not conserved: admitted=%d delivered=%d dropped=%d queued=%d", admitted, delivered, dropped, queued)
	}
	if delivered != int64(got) {
		t.Fatalf("class delivered=%d but outputs drained %d", delivered, got)
	}
	if dropped == 0 {
		t.Fatal("no class frames dropped by the stranded sweep")
	}
	if snap.Backlog != 0 {
		t.Fatalf("engine backlog = %d after flush, want 0", snap.Backlog)
	}
}

// TestClassSlotsReturned checks that the class tier frees every slab
// slot it stages (a classed frame lives in its input's slab, and its
// PIFO holds the slot): a frame a full PIFO refuses, and a frame flushed
// from a PIFO behind a failed output under DropStranded. Each cycle
// fills the PIFO of every input toward one output, offers two more
// frames to each (refused), fails the output for one slot (the sweep
// flushes the PIFOs) and recovers it, while one frame per input crosses
// a healthy output. A slot leaked on either path would grow its input's
// slab, which allocates, so 10⁴ cycles after a warm-up must allocate
// nothing. They are measured as one AllocsPerRun run: AllocsPerRun
// divides by the run count in integers, so 10⁴ runs of one cycle would
// read 0 through the few doublings a leak causes.
func TestClassSlotsReturned(t *testing.T) {
	const n, voqCap, down, cycles = 8, 4, 1, 10000
	for _, dp := range switchcore.Names() {
		t.Run(dp, func(t *testing.T) {
			cfg := rt.Config{
				N: n, Datapath: dp, VOQCap: voqCap, OutCap: 64,
				Classes: testClassList(), Rank: pifo.RankDeadline, FaultPolicy: rt.DropStranded,
			}
			if dp != switchcore.DatapathCICQ {
				cfg.Scheduler = newScheduler(t, "lcf_central_rr", n)
			}
			e, err := rt.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			seq, shift := uint64(0), 0
			cycle := func() {
				shift++
				for src := 0; src < n; src++ {
					for k := 0; k < voqCap+2; k++ {
						seq++
						err := e.AdmitClass(src, down, int(seq%3), seq, 0, 0)
						if refused := k >= voqCap; refused != errors.Is(err, rt.ErrBackpressure) || !refused && err != nil {
							t.Fatalf("frame %d of %d toward the full PIFO (%d,%d): %v", k+1, voqCap+2, src, down, err)
						}
					}
					if dst := (src + shift) % n; dst != down {
						seq++
						if err := e.AdmitClass(src, dst, int(seq%3), seq, 0, 0); err != nil {
							t.Fatalf("AdmitClass(%d,%d): %v", src, dst, err)
						}
					}
				}
				dropped := e.Stats().DroppedFault.Value()
				if err := e.FailOutput(down); err != nil {
					t.Fatal(err)
				}
				e.Tick()
				if got := e.Stats().DroppedFault.Value() - dropped; got != n*voqCap {
					t.Fatalf("the flush slot dropped %d frames, want the %d in the PIFOs toward output %d", got, n*voqCap, down)
				}
				if err := e.RecoverOutput(down); err != nil {
					t.Fatal(err)
				}
				e.Tick()
				drainOutputs(e)
			}
			for k := 0; k < 64; k++ {
				cycle()
			}
			allocs := testing.AllocsPerRun(1, func() {
				for k := 0; k < cycles; k++ {
					cycle()
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocations in %d cycles of refused and flushed classed frames, want 0", allocs, cycles)
			}
		})
	}
}
