package runtime_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/flowtable"
	"repro/internal/obs"
	rt "repro/internal/runtime"
)

// newFlowEngine builds a lockstep engine with the flow tier enabled.
func newFlowEngine(t *testing.T, n, flows int, policy string, fp rt.FaultPolicy) *rt.Engine {
	t.Helper()
	e, err := rt.New(rt.Config{
		N:           n,
		Scheduler:   newScheduler(t, "lcf_central_rr", n),
		VOQCap:      64,
		OutCap:      64,
		Flows:       flows,
		FlowPolicy:  policy,
		FaultPolicy: fp,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// offerFlow offers one steered, unclassed frame: the shape lcfd builds
// from a clint FlowData frame.
func offerFlow(e *rt.Engine, id uint64, dst int, seq uint64) (int, error) {
	return e.Offer(rt.Request{Dst: dst, Seq: seq, Flow: id, Steered: true})
}

// TestAdmitFlowEndToEnd drives frames from many flows through the flow
// front door and the slot loop, and checks delivery, flow accounting
// and the per-flow stickiness of the chosen ports.
func TestAdmitFlowEndToEnd(t *testing.T) {
	const n, flows = 4, 64
	e := newFlowEngine(t, n, flows, "po2", rt.HoldStranded)
	defer e.Close()

	ports := make(map[uint64]int)
	injected := 0
	for round := 0; round < 8; round++ {
		for id := uint64(0); id < flows; id++ {
			port, err := offerFlow(e, id, int(id)%n, uint64(injected))
			if errors.Is(err, rt.ErrBackpressure) {
				continue // fine under load; the VOQ said no, the flow table said yes
			}
			if err != nil {
				t.Fatalf("steered Offer(flow %d): %v", id, err)
			}
			if prev, seen := ports[id]; seen && prev != port {
				t.Fatalf("flow %d moved from port %d to %d", id, prev, port)
			}
			ports[id] = port
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

	tbl := e.Flows()
	if tbl == nil {
		t.Fatal("Flows() nil on a flow-enabled engine")
	}
	st := tbl.Stats()
	if st.Resident != flows {
		t.Fatalf("resident flows = %d, want %d", st.Resident, flows)
	}
	if st.Steered != int64(8*flows) {
		t.Fatalf("steered = %d, want %d", st.Steered, 8*flows)
	}

	snap := e.Snapshot()
	if snap.Flows == nil {
		t.Fatal("Snapshot.Flows nil on a flow-enabled engine")
	}
	if snap.Flows.Policy != "po2" || snap.Flows.Resident != flows {
		t.Fatalf("snapshot flow section = %+v", snap.Flows)
	}
}

// TestAdmitFlowDisabled pins the ErrNoFlowTable contract.
func TestAdmitFlowDisabled(t *testing.T) {
	e, err := rt.New(rt.Config{N: 4, Scheduler: newScheduler(t, "islip", 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := offerFlow(e, 1, 0, 0); !errors.Is(err, rt.ErrNoFlowTable) {
		t.Fatalf("steered Offer on flow-free engine: %v, want ErrNoFlowTable", err)
	}
	if e.Flows() != nil {
		t.Fatal("Flows() non-nil on a flow-free engine")
	}
	if e.Snapshot().Flows != nil {
		t.Fatal("Snapshot.Flows non-nil on a flow-free engine")
	}
	// FlowPolicy without Flows is a config error, not a silent no-op.
	if _, err := rt.New(rt.Config{N: 4, Scheduler: newScheduler(t, "islip", 4), FlowPolicy: "po2"}); err == nil {
		t.Fatal("New accepted FlowPolicy without Flows")
	}
}

// TestPerInputBacklogGauge pins the lock-free per-input backlog gauges
// (the steering policies' load signal) against the datapath's
// lock-taking truth at every quiescent point of an admit/tick/drain
// cycle, including a stranded-VOQ flush.
func TestPerInputBacklogGauge(t *testing.T) {
	const n = 4
	e, err := rt.New(rt.Config{
		N:           n,
		Scheduler:   newScheduler(t, "lcf_central_rr", n),
		FaultPolicy: rt.DropStranded,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	check := func(when string) {
		t.Helper()
		snap := e.Snapshot() // Ports[].Backlog reads the datapath under locks
		var total int64
		for p := 0; p < n; p++ {
			g := e.Stats().PerInputBacklog[p].Value()
			if g != snap.Ports[p].Backlog {
				t.Fatalf("%s: input %d gauge %d != datapath backlog %d", when, p, g, snap.Ports[p].Backlog)
			}
			total += g
		}
		if total != snap.Backlog {
			t.Fatalf("%s: per-input gauges sum to %d, global backlog %d", when, total, snap.Backlog)
		}
	}

	for i := 0; i < n; i++ {
		for k := 0; k < 8; k++ {
			if err := e.Admit(i, (i+k)%n, uint64(k), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after admits")
	for s := 0; s < 3; s++ {
		e.Tick()
		drainOutputs(e)
		check("mid-drain")
	}
	// Strand input 2's remaining frames and let the drop sweep flush them.
	if err := e.FailInput(2); err != nil {
		t.Fatal(err)
	}
	e.Tick()
	drainOutputs(e)
	check("after stranded flush")
	if got := e.Stats().PerInputBacklog[2].Value(); got != 0 {
		t.Fatalf("failed input's backlog gauge = %d, want 0 after flush", got)
	}
}

// TestAdmitFlowRehomeFollowsFaultPolicy pins the pairing rule: hold
// keeps a sticky flow on its down port (admissions bounce with
// ErrPortDown until recovery), drop re-steers it to a live port.
func TestAdmitFlowRehomeFollowsFaultPolicy(t *testing.T) {
	t.Run("hold", func(t *testing.T) {
		e := newFlowEngine(t, 4, 32, "hash", rt.HoldStranded)
		defer e.Close()
		port, err := offerFlow(e, 9, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.FailInput(port); err != nil {
			t.Fatal(err)
		}
		e.Tick()
		p2, err := offerFlow(e, 9, 1, 1)
		if p2 != port || !errors.Is(err, rt.ErrPortDown) {
			t.Fatalf("hold pairing: port %d err %v, want sticky port %d with ErrPortDown", p2, err, port)
		}
		if err := e.RecoverInput(port); err != nil {
			t.Fatal(err)
		}
		e.Tick()
		if p3, err := offerFlow(e, 9, 1, 2); err != nil || p3 != port {
			t.Fatalf("post-recovery: port %d err %v, want %d", p3, err, port)
		}
	})
	t.Run("drop", func(t *testing.T) {
		e := newFlowEngine(t, 4, 32, "least", rt.DropStranded)
		defer e.Close()
		port, err := offerFlow(e, 9, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.FailInput(port); err != nil {
			t.Fatal(err)
		}
		e.Tick()
		p2, err := offerFlow(e, 9, 1, 1)
		if err != nil {
			t.Fatalf("drop pairing should rehome and admit: %v", err)
		}
		if p2 == port {
			t.Fatalf("drop pairing left flow on down port %d", port)
		}
		if got := e.Flows().Stats().Rebalanced; got != 1 {
			t.Fatalf("Rebalanced = %d, want 1", got)
		}
	})
}

// TestAdmitFlowTableFull pins the full-table refusal: port -1,
// flowtable.ErrTableFull wrapped with the flow id, rejection counted,
// and the frame never admitted (conservation: nothing entered a VOQ).
func TestAdmitFlowTableFull(t *testing.T) {
	e, err := rt.New(rt.Config{
		N:          2,
		Scheduler:  newScheduler(t, "lcf_central_rr", 2),
		Flows:      4,
		FlowShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var full bool
	for id := uint64(0); id < 128; id++ {
		port, err := offerFlow(e, id, 0, id)
		if errors.Is(err, flowtable.ErrTableFull) {
			if port != -1 {
				t.Fatalf("rejected flow got port %d, want -1", port)
			}
			full = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("table never filled")
	}
	st := e.Flows().Stats()
	if st.Rejected == 0 {
		t.Fatal("Rejected not counted")
	}
	if admitted := e.Stats().Admitted.Value(); admitted != st.Steered {
		t.Fatalf("admitted %d frames but steered %d — a rejected flow's frame entered a VOQ", admitted, st.Steered)
	}
}

// TestFlowTraceEvents drives admissions, a rebalance and a rejection
// through a tracing engine and checks the kind=flow events drain with
// the right ids, ports and dispositions — from concurrent emitters (the
// admission goroutines race the arbiter's slot events here).
func TestFlowTraceEvents(t *testing.T) {
	const n = 4
	tr := obs.NewTracer(n, 256)
	tr.Enable()
	e, err := rt.New(rt.Config{
		N:           n,
		Scheduler:   newScheduler(t, "lcf_central_rr", n),
		Flows:       16,
		FlowPolicy:  "po2",
		FaultPolicy: rt.DropStranded,
		Tracer:      tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				offerFlow(e, uint64(4*w+k), 0, 0) //nolint:errcheck // backpressure is fine here
			}
		}(w)
	}
	wg.Wait()
	e.Tick()

	byDisp := map[string]int{}
	for _, ev := range tr.Drain() {
		if ev.Kind != "flow" {
			continue
		}
		byDisp[ev.Disp]++
		if ev.Disp != "rejected" && (ev.Port < 0 || ev.Port >= n) {
			t.Fatalf("flow event with port %d: %+v", ev.Port, ev)
		}
	}
	if byDisp["new"] != 16 {
		t.Fatalf("drained %d new-flow events, want 16 (got %v)", byDisp["new"], byDisp)
	}

	// A rebalance event: fail flow 0's port, steer it again.
	port, _, ok := func() (int, uint64, bool) { return e.Flows().Lookup(0) }()
	if !ok {
		t.Fatal("flow 0 not resident")
	}
	if err := e.FailInput(port); err != nil {
		t.Fatal(err)
	}
	e.Tick()
	if _, err := offerFlow(e, 0, 0, 1); err != nil && !errors.Is(err, rt.ErrBackpressure) {
		t.Fatal(err)
	}
	found := false
	for _, ev := range tr.Drain() {
		if ev.Kind == "flow" && ev.Disp == "rebalanced" && ev.Flow == 0 {
			found = true
			if ev.Port == port {
				t.Fatalf("rebalanced onto the down port %d", port)
			}
		}
	}
	if !found {
		t.Fatal("no rebalanced flow event drained")
	}
}

// TestRefusedSteeredRequestLeavesNoFlow pins the stage order around the
// steer stage: everything that can be refused from the request alone, or
// from a closed engine, is refused before the flow table is touched — no
// flow inserted, no steering counted, no trace event — so malformed
// frames cannot fill the table and starve well-formed new flows. The link
// gate is the deliberate exception: a frame toward a down output still
// steers and inserts, which is what keeps the flow sticky across the
// outage.
func TestRefusedSteeredRequestLeavesNoFlow(t *testing.T) {
	const n = 4
	tr := obs.NewTracer(n, 64)
	tr.Enable()
	e, err := rt.New(rt.Config{
		N: n, Scheduler: newScheduler(t, "lcf_central_rr", n),
		Flows: 32, Classes: testClassList(), Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	base, traced := e.Flows().Stats(), 0 // Drain does not consume: compare ring lengths
	refused := func(name string, r rt.Request, want error) {
		t.Helper()
		r.Steered = true
		port, err := e.Offer(r)
		if !errors.Is(err, want) || port != -1 {
			t.Errorf("%s: Offer = port %d, %v; want -1, %v", name, port, err, want)
		}
		if got := e.Flows().Stats(); got != base {
			t.Errorf("%s: the refused request moved the flow table: %+v → %+v", name, base, got)
		}
		if evs := tr.Drain(); len(evs) != traced {
			t.Errorf("%s: the refused request left a trace event: %+v", name, evs)
		}
	}
	refused("dst = n", rt.Request{Flow: 1, Dst: n}, rt.ErrBadPort)
	refused("dst = -1", rt.Request{Flow: 2, Dst: -1}, rt.ErrBadPort)
	refused("class out of range", rt.Request{Flow: 3, Dst: 1, Class: 9, Classed: true}, rt.ErrBadClass)
	refused("class = -1", rt.Request{Flow: 4, Dst: 1, Class: -1, Classed: true}, rt.ErrBadClass)

	// Toward a down output: refused by the gate, after the steer stage.
	if err := e.FailOutput(1); err != nil {
		t.Fatal(err)
	}
	port, err := offerFlow(e, 5, 1, 0)
	if !errors.Is(err, rt.ErrPortDown) || port < 0 {
		t.Fatalf("toward a down output: port %d, %v; want the flow's port and ErrPortDown", port, err)
	}
	base.Inserted, base.Resident, base.Steered = base.Inserted+1, base.Resident+1, base.Steered+1
	if got := e.Flows().Stats(); got != base {
		t.Fatalf("toward a down output the flow must still steer and insert: %+v, want %+v", got, base)
	}
	if p, _, ok := e.Flows().Lookup(5); !ok || p != port {
		t.Fatalf("flow 5 resident = %t at port %d, want port %d", ok, p, port)
	}
	if traced = len(tr.Drain()); traced != 1 {
		t.Fatalf("%d trace events after one new flow, want its FlowNew", traced)
	}

	e.Close()
	refused("after Close, new flow", rt.Request{Flow: 6, Dst: 2}, rt.ErrClosed)
	refused("after Close, resident flow", rt.Request{Flow: 5, Dst: 2}, rt.ErrClosed)
}
