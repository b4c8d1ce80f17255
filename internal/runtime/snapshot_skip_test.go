package runtime

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/switchcore"
)

// slotView is what one slot of the snapshot differential compares: the
// OnSlot event with its grants copied out, and the counters snapshot and
// dispatch feed.
type slotView struct {
	Requested, Matched                                     int
	Src                                                    []int
	Rule                                                   []sched.GrantRule
	Choices                                                []int
	MaskedOutputs, FaultMasked, OccupiedVOQs, WastedGrants int64
}

// tickFullWalk is the oracle's slot: tick's phases in tick's order, with
// a snapshot that locks, samples and snapshots every row, every slot.
func (e *Engine) tickFullWalk() {
	now := e.slot.Load()
	e.applyFaults(now)
	e.sweepStranded()
	e.classFill()
	e.maskFullOutputs()
	requested, masked, faulted := 0, 0, 0
	for i := 0; i < e.n; i++ {
		e.inMu[i].Lock()
		row := e.dp.OccupiedRow(i)
		for j := row.FirstSet(); j >= 0; j = row.NextSet(j + 1) {
			e.met.VOQDepth.Observe(float64(e.dp.Len(i, j)))
		}
		r, m, f := e.dp.SnapshotRow(i)
		requested, masked, faulted = requested+r, masked+m, faulted+f
		e.inMu[i].Unlock()
	}
	e.recordSnapshot(requested, masked, faulted)
	grants := e.dp.Arbitrate(e.cfg.Scheduler)
	matched := e.dispatch(grants, now)
	e.publish(requested, matched)
	e.cfg.OnSlot(SlotEvent{Slot: now, Grants: grants, Requested: requested, Matched: matched})
	e.slot.Add(1)
}

// TestSnapshotSkipMatchesFullWalk drives two lockstep engines from one
// seeded trace: one ticks, skipping inputs that hold nothing, the other
// walks every row each slot (tickFullWalk). They must agree slot for slot —
// grants with their rules and choice counts, deliveries, the snapshot's
// counters and, on the VOQ core, the request and queue-length scratch the
// scheduler reads. Inputs go quiet and come back, one output is wedged for
// a stretch so its column is masked, and links fail and recover, so rows
// empty between snapshots (the one extra SnapshotRow that clears them)
// under every mask the snapshot applies.
func TestSnapshotSkipMatchesFullWalk(t *testing.T) {
	for _, dp := range switchcore.Names() {
		for _, n := range []int{8, 67} {
			t.Run(fmt.Sprintf("%s/n%d", dp, n), func(t *testing.T) {
				runSnapshotSkipDifferential(t, dp, n, 3000)
			})
		}
	}
}

func runSnapshotSkipDifferential(t *testing.T, dp string, n, slots int) {
	views := [2][]slotView{}
	build := func(side int) *Engine {
		cfg := Config{N: n, Datapath: dp, VOQCap: 8, OutCap: 2}
		if dp != switchcore.DatapathCICQ {
			s, err := registry.New("lcf_central_rr", n, sched.Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheduler = s
		}
		var e *Engine
		cfg.OnSlot = func(ev SlotEvent) {
			st := e.Stats()
			views[side] = append(views[side], slotView{
				Requested: ev.Requested, Matched: ev.Matched,
				Src:           append([]int(nil), ev.Grants.Src...),
				Rule:          append([]sched.GrantRule(nil), ev.Grants.Rule...),
				Choices:       append([]int(nil), ev.Grants.Choices...),
				MaskedOutputs: st.MaskedOutputs.Value(), FaultMasked: st.FaultMasked.Value(),
				OccupiedVOQs: st.OccupiedVOQs.Value(), WastedGrants: st.WastedGrants.Value(),
			})
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	skip, full := build(0), build(1)
	defer skip.Close()
	defer full.Close()

	const wedged = 1
	faults := map[int]func(e *Engine) error{
		slots * 5 / 10: func(e *Engine) error { return e.FailInput(2) },
		slots * 6 / 10: func(e *Engine) error { return e.RecoverInput(2) },
		slots * 7 / 10: func(e *Engine) error { return e.FailOutput(3) },
		slots * 8 / 10: func(e *Engine) error { return e.RecoverOutput(3) },
	}
	consume := func(e *Engine, s int) (got []delivery) {
		for j := range e.outs {
			if j == wedged && s >= slots/4 && s < slots/2 {
				continue
			}
			for len(e.outs[j]) > 0 {
				f := <-e.outs[j]
				got = append(got, delivery{f.Src, f.Dst, f.Seq, f.Class, f.Departed})
			}
		}
		return got
	}

	r := rng.New(29)
	seq := uint64(0)
	skipped, emptied := 0, 0
	for s := 0; s < slots; s++ {
		if f := faults[s]; f != nil {
			for _, e := range []*Engine{skip, full} {
				if err := f(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A quarter of the inputs offer in a slot, in bursts of up to
		// three, so rows fill and empty all the time.
		for i := 0; i < n; i++ {
			if !r.Bool(0.25) {
				continue
			}
			for k := r.Intn(3); k >= 0; k-- {
				dst := r.Intn(n)
				seq++
				ge, we := skip.Admit(i, dst, seq, 0), full.Admit(i, dst, seq, 0)
				if (ge == nil) != (we == nil) {
					t.Fatalf("slot %d: Admit(%d,%d) = %v, full walk %v", s, i, dst, ge, we)
				}
			}
		}
		for i := 0; i < n; i++ {
			if skip.met.PerInputBacklog[i].Value() == 0 {
				if skip.snapped[i] {
					emptied++
				} else {
					skipped++
				}
			}
		}
		skip.tick()
		full.tickFullWalk()
		if gv, fv := views[0][s], views[1][s]; !reflect.DeepEqual(gv, fv) {
			t.Fatalf("slot %d:\n skip %+v\n full %+v", s, gv, fv)
		}
		if gd, fd := consume(skip, s), consume(full, s); !reflect.DeepEqual(gd, fd) {
			t.Fatalf("slot %d: delivered\n %v\nfull walk\n %v", s, gd, fd)
		}
		if gc, ok := skip.dp.(*switchcore.Core[Frame]); ok {
			fc := full.dp.(*switchcore.Core[Frame])
			if !gc.Requests().Equal(fc.Requests()) {
				t.Fatalf("slot %d: request scratch\n%v\nfull walk\n%v", s, gc.Requests(), fc.Requests())
			}
			if !reflect.DeepEqual(gc.QueueLens(), fc.QueueLens()) {
				t.Fatalf("slot %d: queue-length scratch differs from the full walk", s)
			}
		}
	}
	// CICQ's dispatch ignores the per-slot output mask (a masked output's
	// crosspoints fill instead), so only the VOQ core counts masks.
	st := skip.Stats()
	if skipped == 0 || emptied == 0 || st.Delivered.Value() == 0 || st.FaultMasked.Value() == 0 ||
		dp != switchcore.DatapathCICQ && st.MaskedOutputs.Value() == 0 {
		t.Fatalf("trace too gentle: %d rows skipped, %d emptied rows re-snapshotted, %d delivered, %d masked, %d fault-masked",
			skipped, emptied, st.Delivered.Value(), st.MaskedOutputs.Value(), st.FaultMasked.Value())
	}
	t.Logf("%d rows skipped, %d emptied rows re-snapshotted, %d frames delivered", skipped, emptied, st.Delivered.Value())
}
