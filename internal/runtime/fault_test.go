package runtime_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pifo"
	rt "repro/internal/runtime"
)

// drainOutputs empties every output channel without blocking, returning
// the number of frames consumed.
func drainOutputs(e *rt.Engine) int {
	n := 0
	for j := 0; j < e.N(); j++ {
		n += consumeAll(e, j)
	}
	return n
}

// consumeAll keeps reading output j until the channel is empty right now.
func consumeAll(e *rt.Engine, j int) int {
	n := 0
	for {
		select {
		case _, ok := <-e.Output(j):
			if !ok {
				return n
			}
			n++
		default:
			return n
		}
	}
}

// TestFaultMaskingAndRecovery drives a lockstep engine through an output
// failure and checks the acceptance-criteria timing: the failed port
// receives zero grants from the very next slot, held frames survive
// (HoldStranded), and service resumes within one slot of recovery.
func TestFaultMaskingAndRecovery(t *testing.T) {
	const n = 4
	granted := make(map[int]int64) // output j -> last slot granted
	e, err := rt.New(rt.Config{
		N:         n,
		Scheduler: newScheduler(t, "lcf_central_rr", n),
		VOQCap:    8,
		OnSlot: func(ev rt.SlotEvent) {
			for i := 0; i < n; i++ {
				if j := ev.Match.InToOut[i]; j >= 0 {
					granted[j] = ev.Slot
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Load every VOQ toward output 1 and elsewhere.
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			if err := e.Admit(i, 1, uint64(k), 0); err != nil {
				t.Fatal(err)
			}
			if err := e.Admit(i, (i+2)%n, uint64(k), 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := e.FailOutput(1); err != nil {
		t.Fatal(err)
	}
	failSlot := e.Slot()
	for s := 0; s < 6; s++ {
		e.Tick()
		for j := 0; j < n; j++ {
			consumeAll(e, j)
		}
	}
	if last, ok := granted[1]; ok && last >= failSlot {
		t.Fatalf("output 1 granted at slot %d, failed before slot %d", last, failSlot)
	}
	if in, out := e.LinkDown(1); in || !out {
		t.Fatalf("LinkDown(1) = %v,%v, want false,true", in, out)
	}

	// Admission toward the failed output is refused.
	if err := e.Admit(0, 1, 99, 0); !errors.Is(err, rt.ErrPortDown) {
		t.Fatalf("Admit toward failed output: %v, want ErrPortDown", err)
	}
	st := e.Stats()
	if st.RejectedPortDown.Value() != 1 {
		t.Fatalf("RejectedPortDown = %d", st.RejectedPortDown.Value())
	}
	// Hold policy: the stranded frames are still resident, none dropped.
	if st.DroppedFault.Value() != 0 {
		t.Fatalf("hold policy dropped %d frames", st.DroppedFault.Value())
	}
	if st.Stranded.Value() == 0 {
		t.Fatal("stranded gauge is zero with frames held behind a failed output")
	}
	snap := e.Snapshot()
	if len(snap.FailedOutputs) != 1 || snap.FailedOutputs[0] != 1 || len(snap.FailedInputs) != 0 {
		t.Fatalf("snapshot failed ports: in=%v out=%v", snap.FailedInputs, snap.FailedOutputs)
	}

	// Recover: output 1 must be granted within one slot (its VOQs are the
	// oldest backlog in the switch).
	if err := e.RecoverOutput(1); err != nil {
		t.Fatal(err)
	}
	recoverSlot := e.Slot()
	e.Tick()
	consumed := consumeAll(e, 1)
	if consumed == 0 {
		t.Fatalf("no delivery to output 1 in the first slot after recovery (slot %d)", recoverSlot)
	}
	if granted[1] != recoverSlot {
		t.Fatalf("output 1 regranted at slot %d, recovered at %d", granted[1], recoverSlot)
	}
	if st.Stranded.Value() != 0 {
		t.Fatalf("stranded gauge %d after recovery", st.Stranded.Value())
	}

	// Conservation across the whole episode.
	for s := 0; s < 200 && st.Backlog.Value() > 0; s++ {
		e.Tick()
		for j := 0; j < n; j++ {
			consumeAll(e, j)
		}
	}
	if st.Backlog.Value() != 0 {
		t.Fatalf("backlog %d after recovery drain", st.Backlog.Value())
	}
	e.Close()
	if got, want := st.Delivered.Value(), st.Admitted.Value(); got != want {
		t.Fatalf("delivered %d of %d admitted (hold policy must lose nothing)", got, want)
	}
}

// TestFaultDropPolicy checks DropStranded: frames stranded behind a
// failed input are flushed and counted, and conservation holds as
// admitted == delivered + dropped + resident.
func TestFaultDropPolicy(t *testing.T) {
	const n = 4
	e, err := rt.New(rt.Config{
		N:           n,
		Scheduler:   newScheduler(t, "lcf_central_rr", n),
		VOQCap:      8,
		FaultPolicy: rt.DropStranded,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if err := e.Admit(2, k%n, uint64(k), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FailInput(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Admit(2, 0, 9, 0); !errors.Is(err, rt.ErrPortDown) {
		t.Fatalf("Admit from failed input: %v", err)
	}
	e.Tick()
	delivered := drainOutputs(e)
	st := e.Stats()
	if st.DroppedFault.Value() != 5 {
		t.Fatalf("dropped %d stranded frames, want 5", st.DroppedFault.Value())
	}
	if got := st.Admitted.Value(); got != int64(delivered)+st.DroppedFault.Value()+st.Backlog.Value() {
		t.Fatalf("conservation: admitted %d != delivered %d + dropped %d + backlog %d",
			got, delivered, st.DroppedFault.Value(), st.Backlog.Value())
	}
	if st.Backlog.Value() != 0 {
		t.Fatalf("backlog %d after sweep", st.Backlog.Value())
	}

	// Recovery re-opens admission; nothing lingers from the failure.
	if err := e.RecoverInput(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Admit(2, 0, 10, 0); err != nil {
		t.Fatalf("Admit after recovery: %v", err)
	}
	e.Tick()
	if got := drainOutputs(e); got != 1 {
		t.Fatalf("delivered %d frames in first slot after recovery, want 1", got)
	}
}

// TestFaultTraceEvents checks the obs integration: link transitions show
// up as kind=fault events in the drained trace, stamped with the slot at
// which the arbiter applied them.
func TestFaultTraceEvents(t *testing.T) {
	const n = 4
	tr := obs.NewTracer(n, 64)
	tr.Enable()
	e, err := rt.New(rt.Config{
		N:         n,
		Scheduler: newScheduler(t, "lcf_central_rr", n),
		Tracer:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Tick()
	if err := e.FailOutput(3); err != nil {
		t.Fatal(err)
	}
	e.Tick() // applies the transition at slot 1
	if err := e.Recover(3); err != nil {
		t.Fatal(err)
	}
	e.Tick() // applies the recovery at slot 2

	var faults []obs.Event
	for _, ev := range tr.Drain() {
		if ev.Kind == "fault" {
			faults = append(faults, ev)
		}
	}
	if len(faults) != 2 {
		t.Fatalf("traced %d fault events, want 2: %+v", len(faults), faults)
	}
	down, up := faults[0], faults[1]
	if down.Port != 3 || down.Dir != obs.DirOutput || down.State != "down" || down.Slot != 1 {
		t.Fatalf("down event %+v", down)
	}
	if up.Port != 3 || up.Dir != obs.DirOutput || up.State != "up" || up.Slot != 2 {
		t.Fatalf("up event %+v", up)
	}
}

// TestFaultErrorsAndIdempotence covers the API edges: out-of-range ports
// and repeated transitions.
func TestFaultErrorsAndIdempotence(t *testing.T) {
	e, err := rt.New(rt.Config{N: 2, Scheduler: newScheduler(t, "lcf_central_rr", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FailInput(-1); !errors.Is(err, rt.ErrBadPort) {
		t.Fatalf("FailInput(-1): %v", err)
	}
	if err := e.FailOutput(2); !errors.Is(err, rt.ErrBadPort) {
		t.Fatalf("FailOutput(2): %v", err)
	}
	if err := e.FailPort(0); err != nil {
		t.Fatal(err)
	}
	if err := e.FailPort(0); err != nil { // idempotent
		t.Fatal(err)
	}
	if in, out := e.LinkDown(0); !in || !out {
		t.Fatalf("LinkDown(0) = %v,%v after FailPort", in, out)
	}
	if err := e.Recover(0); err != nil {
		t.Fatal(err)
	}
	if in, out := e.LinkDown(0); in || out {
		t.Fatalf("LinkDown(0) = %v,%v after Recover", in, out)
	}

	// Unknown fault policy is rejected at construction.
	if _, err := rt.New(rt.Config{N: 2, Scheduler: newScheduler(t, "lcf_central_rr", 2), FaultPolicy: rt.FaultPolicy(7)}); err == nil {
		t.Fatal("New accepted an unknown fault policy")
	}
}

// TestCloseStuckConsumer pins the shutdown bound from PR 1: Close against
// a consumer that never reads must terminate within DrainSlots (here cut
// short by the stall detector), and every frame the drain could not
// deliver must be accounted in the Undrained gauge — nothing is lost
// silently.
func TestCloseStuckConsumer(t *testing.T) {
	const (
		n      = 4
		voqCap = 16
	)
	e, err := rt.New(rt.Config{
		N:          n,
		Scheduler:  newScheduler(t, "lcf_central_rr", n),
		VOQCap:     voqCap,
		OutCap:     2,
		SlotPeriod: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	// Saturate every VOQ toward output 0 — whose consumer is permanently
	// stuck (nobody ever reads e.Output(0)).
	admitted := 0
	for i := 0; i < n; i++ {
		for k := 0; k < voqCap; k++ {
			if err := e.Admit(i, 0, uint64(k), 0); err == nil {
				admitted++
			}
		}
	}
	// Give the arbiter a moment to fill output 0's channel and mask it.
	time.Sleep(5 * time.Millisecond)

	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not terminate with a stuck consumer")
	}

	// Everything admitted is either sitting in output 0's channel or
	// accounted as undrained backlog.
	st := e.Stats()
	inChannel := 0
	for range e.Output(0) { // closed by drain; reads the residue
		inChannel++
	}
	if got := int(st.Undrained.Value()) + inChannel; got != admitted {
		t.Fatalf("stuck-consumer shutdown lost frames: undrained %d + in-channel %d != admitted %d",
			st.Undrained.Value(), inChannel, admitted)
	}
	if st.Undrained.Value() == 0 {
		t.Fatal("expected a non-zero undrained residue with OutCap=2 and a stuck consumer")
	}
	if got := st.Delivered.Value(); int(got) != inChannel {
		t.Fatalf("delivered counter %d, channel residue %d", got, inChannel)
	}
}

// TestOnDroppedCallback checks the per-frame drop hook: under
// DropStranded, every frame the sweep flushes is handed to
// Config.OnDropped exactly once, before it is counted in DroppedFault —
// the contract the Clos fabric relies on to release its per-frame slab
// entries when an engine discards frames behind a failed link.
func TestOnDroppedCallback(t *testing.T) {
	const n = 4
	var dropped []rt.Frame
	e, err := rt.New(rt.Config{
		N:           n,
		Scheduler:   newScheduler(t, "lcf_central_rr", n),
		VOQCap:      8,
		FaultPolicy: rt.DropStranded,
		OnDropped:   func(f rt.Frame) { dropped = append(dropped, f) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Strand frames behind a failed input AND behind a failed output, so
	// both flush sites in the sweep are exercised.
	for k := 0; k < 3; k++ {
		if err := e.Admit(1, 2, uint64(100+k), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Admit(0, 3, 200, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.FailInput(1); err != nil {
		t.Fatal(err)
	}
	if err := e.FailOutput(3); err != nil {
		t.Fatal(err)
	}
	e.Tick()
	st := e.Stats()
	if st.DroppedFault.Value() != 4 {
		t.Fatalf("DroppedFault %d, want 4", st.DroppedFault.Value())
	}
	if len(dropped) != 4 {
		t.Fatalf("OnDropped saw %d frames, want 4", len(dropped))
	}
	seen := make(map[uint64]bool)
	for _, f := range dropped {
		if seen[f.Seq] {
			t.Fatalf("OnDropped saw seq %d twice", f.Seq)
		}
		seen[f.Seq] = true
	}
	for _, want := range []uint64{100, 101, 102, 200} {
		if !seen[want] {
			t.Fatalf("OnDropped missed seq %d (saw %v)", want, dropped)
		}
	}
}

// TestFaultSweepAllocFree pins the zero-allocation slot contract inside
// the fault window on a class engine under DropStranded. Two windows are
// measured once every queue is at its working size: the slot that folds
// an output failure in and flushes what was queued toward it (VOQ heads
// through the drop hook, PIFOs through their drain) — where a hook
// rebuilt per flushed VOQ used to cost one closure each — and the outage
// that follows, admit + tick with the sweep scanning every slot.
func TestFaultSweepAllocFree(t *testing.T) {
	const n, down = 8, 1
	e := newClassEngine(t, n, pifo.RankDeadline, rt.DropStranded, nil)
	defer e.Close()

	seq := uint64(0)
	admit := func(src, dst int) {
		seq++
		if err := e.AdmitClass(src, dst, int(seq%3), seq, 0, 0); err != nil {
			t.Fatalf("AdmitClass(%d,%d): %v", src, dst, err)
		}
	}
	// Four frames on every pair: each input ends up with a VOQ head and a
	// PIFO backlog toward the output about to fail.
	for k := 0; k < 4; k++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				admit(src, dst)
			}
		}
		e.Tick()
		drainOutputs(e)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	if err := e.FailOutput(down); err != nil {
		t.Fatal(err)
	}
	dropped := e.Stats().DroppedFault.Value()
	runtime.ReadMemStats(&before)
	e.Tick()
	runtime.ReadMemStats(&after)
	if flushed := e.Stats().DroppedFault.Value() - dropped; flushed < 2*n {
		t.Fatalf("flush slot dropped %d frames, want a VOQ head and a PIFO backlog on each of %d inputs", flushed, n)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("%d allocations in the slot that flushed the failed output, want 0", allocs)
	}
	drainOutputs(e)

	// The outage: a rotating permutation of admissions around the failed
	// output, a load the seven healthy outputs sustain.
	shift := 0
	allocs := testing.AllocsPerRun(200, func() {
		shift++
		for src := 0; src < n; src++ {
			if dst := (src + shift) % n; dst != down {
				admit(src, dst)
			}
		}
		e.Tick()
		drainOutputs(e)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per admit+tick while output %d is down, want 0", allocs, down)
	}
}
