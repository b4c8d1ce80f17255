package obs

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// diagonalGrants returns the grant set pairing input i with output
// (i+1)%n, every grant attributed to rule with the given choice count.
func diagonalGrants(n int, rule sched.GrantRule, choices int) *sched.GrantSet {
	g := sched.NewGrantSet(n)
	for i := 0; i < n; i++ {
		g.Set((i+1)%n, i, rule, choices)
	}
	return g
}

// unattributed is diagonalGrants without attribution.
func unattributed(n int) *sched.GrantSet { return diagonalGrants(n, sched.RuleUnattributed, -1) }

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := NewTracer(4, 8)
	tr.EmitGrants(1, 4, unattributed(4))
	if got := tr.Emitted(); got != 0 {
		t.Fatalf("disabled tracer emitted %d events", got)
	}
	if evs := tr.Drain(); len(evs) != 0 {
		t.Fatalf("disabled tracer drained %d events", len(evs))
	}
	var nilTracer *Tracer
	nilTracer.EmitGrants(1, 4, unattributed(4)) // nil-safe: must not panic
}

func TestTracerRecordsGrantsAndAttribution(t *testing.T) {
	tr := NewTracer(4, 8)
	tr.Enable()
	tr.EmitGrants(7, 9, diagonalGrants(4, sched.RuleDiagonal, 2))
	evs := tr.Drain()
	if len(evs) != 1 {
		t.Fatalf("drained %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Slot != 7 || ev.Requested != 9 || ev.Matched != 4 || len(ev.Grants) != 4 {
		t.Fatalf("event %+v", ev)
	}
	for k, g := range ev.Grants {
		if g.Out != k || g.In != (k+3)%4 { // ascending output order
			t.Errorf("grant %d: %d→%d", k, g.In, g.Out)
		}
		if g.Rule != "diagonal" || g.Choices != 2 {
			t.Errorf("grant %d attribution: rule=%s choices=%d", k, g.Rule, g.Choices)
		}
	}
}

func TestTracerNoExplainer(t *testing.T) {
	tr := NewTracer(4, 8)
	tr.Enable()
	tr.EmitGrants(0, 4, unattributed(4))
	ev := tr.Drain()[0]
	if ev.Grants[0].Rule != "unattributed" || ev.Grants[0].Choices != -1 {
		t.Fatalf("grant without explainer: %+v", ev.Grants[0])
	}
}

// TestTracerWraparound overfills the ring and checks that exactly the
// newest capacity events survive, in order.
func TestTracerWraparound(t *testing.T) {
	const capacity = 16
	tr := NewTracer(4, capacity)
	tr.Enable()
	g := unattributed(4)
	for s := int64(0); s < 3*capacity+5; s++ {
		tr.EmitGrants(s, int(s%5), g)
	}
	evs := tr.Drain()
	if len(evs) != capacity {
		t.Fatalf("drained %d events, want %d", len(evs), capacity)
	}
	first := int64(3*capacity + 5 - capacity)
	for k, ev := range evs {
		if ev.Slot != first+int64(k) {
			t.Fatalf("event %d has slot %d, want %d (oldest-first window)", k, ev.Slot, first+int64(k))
		}
		if ev.Requested != int(ev.Slot%5) {
			t.Fatalf("event %d requested %d, want %d", k, ev.Requested, ev.Slot%5)
		}
	}
	if tr.Emitted() != 3*capacity+5 {
		t.Fatalf("Emitted = %d", tr.Emitted())
	}
}

// TestTracerConcurrentEmitDrain runs a writer against draining readers
// and toggling; under -race this checks the ring is data-race free, and
// the assertions check no torn event is ever surfaced.
func TestTracerConcurrentEmitDrain(t *testing.T) {
	const n, capacity, slots = 8, 32, 20000
	tr := NewTracer(n, capacity)
	tr.Enable()
	g := unattributed(n)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the single emitter (the arbiter role)
		defer wg.Done()
		for s := int64(0); s < slots; s++ {
			tr.EmitGrants(s, n, g)
		}
		close(stop)
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, ev := range tr.Drain() {
					// A surfaced event must never be torn: its payload is
					// internally consistent regardless of ring overwrites.
					if ev.Requested != n || ev.Matched != n || len(ev.Grants) != n {
						t.Errorf("torn event surfaced: %+v", ev)
						return
					}
					for k, gr := range ev.Grants {
						if gr.Out != k || gr.In != (k+n-1)%n {
							t.Errorf("torn grant surfaced in slot %d: %+v", ev.Slot, gr)
							return
						}
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if tr.Emitted() != slots {
		t.Fatalf("Emitted = %d, want %d", tr.Emitted(), slots)
	}
}

// TestTracerLappedWritersNeverTear races four flow and four class
// emitters on a one-entry ring, so every pair of concurrent writers
// claims the same entry, and drains after each round. Every record
// checks itself (slot = id, port = id%7, class = id%5, flow and latency
// = id): a record published with another writer's fields is torn. The
// writers start each round together, which makes the overlap likely
// within milliseconds even on two cores; the run stops after a fixed
// number of rounds or a second, whichever comes first.
func TestTracerLappedWritersNeverTear(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const writers, rounds = 8, 20000
	tr := NewTracer(1, 1)
	tr.Enable()
	var next, round, done atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := int64(1); ; r++ {
				for round.Load() < r {
					if stop.Load() {
						return
					}
					runtime.Gosched()
				}
				id := next.Add(1)
				if w%2 == 0 {
					tr.EmitFlow(id, uint64(id), int(id%7), FlowNew)
				} else {
					tr.EmitClass(id, int(id%5), int(id%7), id)
				}
				done.Add(1)
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	deadline := time.Now().Add(time.Second)
	drained := 0
	for r := int64(1); r <= rounds && time.Now().Before(deadline); r++ {
		round.Store(r)
		for done.Load() < r*writers {
			runtime.Gosched()
		}
		for _, ev := range tr.Drain() {
			drained++
			id := ev.Slot
			ok := ev.Port == int(id%7)
			switch ev.Kind {
			case "flow":
				ok = ok && ev.Flow == uint64(id) && ev.Disp == "new"
			case "class":
				ok = ok && ev.Class == int(id%5) && ev.Latency == id
			default:
				ok = false
			}
			if !ok {
				t.Fatalf("round %d: torn record surfaced: %+v", r, ev)
			}
		}
	}
	if drained == 0 {
		t.Fatal("no record survived the race")
	}
}

// TestTracerFaultEvents interleaves fault transitions with slot
// decisions and checks the drained window keeps them apart: fault
// entries carry Kind/Port/Dir/State, decision entries keep Kind == ""
// even when they reuse a ring entry a fault previously occupied.
func TestTracerFaultEvents(t *testing.T) {
	tr := NewTracer(4, 4) // small ring: force reuse across kinds
	tr.Enable()
	g := unattributed(4)
	tr.EmitFault(0, 2, DirOutput, false)
	tr.EmitGrants(1, 4, g)
	tr.EmitFault(2, 2, DirOutput, true)
	tr.EmitFault(3, 1, DirInput, false)
	evs := tr.Drain()
	if len(evs) != 4 {
		t.Fatalf("drained %d events, want 4", len(evs))
	}
	want := []Event{
		{Slot: 0, Kind: "fault", Port: 2, Dir: DirOutput, State: "down"},
		{Slot: 1},
		{Slot: 2, Kind: "fault", Port: 2, Dir: DirOutput, State: "up"},
		{Slot: 3, Kind: "fault", Port: 1, Dir: DirInput, State: "down"},
	}
	for k, w := range want {
		ev := evs[k]
		if ev.Slot != w.Slot || ev.Kind != w.Kind || ev.Port != w.Port ||
			ev.Dir != w.Dir || ev.State != w.State {
			t.Errorf("event %d: got %+v, want %+v", k, ev, w)
		}
		if w.Kind == "fault" && len(ev.Grants) != 0 {
			t.Errorf("fault event %d carries grants: %+v", k, ev.Grants)
		}
		if w.Kind == "" && (ev.Matched != 4 || len(ev.Grants) != 4) {
			t.Errorf("decision event %d: %+v", k, ev)
		}
	}

	// Wrap the ring fully with decisions: no stale fault bit survives.
	for s := int64(4); s < 9; s++ {
		tr.EmitGrants(s, 4, g)
	}
	for _, ev := range tr.Drain() {
		if ev.Kind != "" {
			t.Fatalf("stale fault event after wraparound: %+v", ev)
		}
	}

	var nilTracer *Tracer
	nilTracer.EmitFault(0, 0, DirInput, false) // nil-safe: must not panic
}

// TestTracerFaultJSONLRoundTrip checks fault events survive the JSONL
// wire format alongside decisions.
func TestTracerFaultJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(4, 8)
	tr.Enable()
	tr.EmitFault(5, 3, DirInput, false)
	tr.EmitGrants(6, 2, unattributed(4))
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round-trip returned %d events", len(back))
	}
	if f := back[0]; f.Kind != "fault" || f.Port != 3 || f.Dir != DirInput || f.State != "down" || f.Slot != 5 {
		t.Fatalf("fault event drifted: %+v", f)
	}
	if back[1].Kind != "" || back[1].Matched != 4 {
		t.Fatalf("decision event drifted: %+v", back[1])
	}
}

// TestTracerEmitFaultZeroAlloc pins EmitFault to the same zero-alloc
// contract as EmitGrants.
func TestTracerEmitFaultZeroAlloc(t *testing.T) {
	tr := NewTracer(16, 64)
	for name, enabled := range map[string]bool{"disabled": false, "enabled": true} {
		tr.SetEnabled(enabled)
		slot := int64(0)
		allocs := testing.AllocsPerRun(500, func() {
			tr.EmitFault(slot, int(slot)%16, DirOutput, slot%2 == 0)
			slot++
		})
		if allocs != 0 {
			t.Errorf("%s EmitFault allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestTracerEmitZeroAlloc pins the hot-path contract: EmitGrants
// allocates nothing, enabled or disabled.
func TestTracerEmitZeroAlloc(t *testing.T) {
	tr := NewTracer(16, 64)
	g := unattributed(16)
	for name, enabled := range map[string]bool{"disabled": false, "enabled": true} {
		tr.SetEnabled(enabled)
		slot := int64(0)
		allocs := testing.AllocsPerRun(500, func() {
			tr.EmitGrants(slot, 16, g)
			slot++
		})
		if allocs != 0 {
			t.Errorf("%s EmitGrants allocates %.1f times, want 0", name, allocs)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(4, 8)
	tr.Enable()
	g := diagonalGrants(4, sched.RuleLCF, 1)
	for s := int64(0); s < 5; s++ {
		tr.EmitGrants(s, 7, g)
	}
	evs := tr.Drain()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evs) {
		t.Fatalf("round-trip lost events: %d vs %d", len(back), len(evs))
	}
	for k := range back {
		if back[k].Slot != evs[k].Slot || back[k].Requested != evs[k].Requested ||
			len(back[k].Grants) != len(evs[k].Grants) || back[k].Grants[0] != evs[k].Grants[0] {
			t.Fatalf("event %d drifted: %+v vs %+v", k, back[k], evs[k])
		}
	}
}

func TestTracerRegisterMetrics(t *testing.T) {
	tr := NewTracer(4, 8)
	r := NewRegistry()
	tr.Register(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Value("lcf_trace_enabled"); v != 0 {
		t.Errorf("lcf_trace_enabled = %g, want 0", v)
	}
	tr.Enable()
	tr.EmitGrants(0, 4, unattributed(4))
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	s, err = ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Value("lcf_trace_enabled"); v != 1 {
		t.Errorf("lcf_trace_enabled = %g, want 1", v)
	}
	if v, _ := s.Value("lcf_trace_events_total"); v != 1 {
		t.Errorf("lcf_trace_events_total = %g, want 1", v)
	}
	if v, _ := s.Value("lcf_trace_capacity_events"); v != 8 {
		t.Errorf("lcf_trace_capacity_events = %g, want 8", v)
	}
}
