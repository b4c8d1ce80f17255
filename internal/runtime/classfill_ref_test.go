package runtime

import (
	"fmt"
	"reflect"
	goruntime "runtime"
	"testing"

	"repro/internal/datapath"
	"repro/internal/pifo"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sched/registry"
)

// classFillRef is the fill phase as it was before the occupancy rows:
// probe every (input, output) pair's queue in 0..n-1 order. It is the
// oracle TestClassFillMatchesRef holds classFill to.
func (e *Engine) classFillRef() {
	ct := e.classes
	n := e.n
	for i := 0; i < n; i++ {
		if ct.pending[i].Value() == 0 {
			continue
		}
		mu := &e.inMu[i]
		mu.Lock()
		if e.dp.InputDown(i) {
			mu.Unlock()
			continue
		}
		for j := 0; j < n; j++ {
			if ct.queues.Len(i, j) == 0 || e.dp.OutputDown(j) || e.dp.HasBacklog(i, j) {
				continue
			}
			f, rank, _ := ct.queues.Pop(i, j)
			ct.rankers[i*n+j].OnPop(rank)
			e.dp.Enqueue(i, j, f)
			ct.pending[i].Add(-1)
			ct.queued[f.Class].Add(-1)
		}
		mu.Unlock()
	}
}

// tickRef is one slot of the oracle engine: the phases tick runs ahead
// of classFill, then the reference fill, then tick itself — whose own
// fault fold is then a no-op, whose sweep finds nothing left to flush,
// and whose classFill must find every servable pair's VOQ already
// occupied. That last part is checked (a frame leaving a PIFO during
// tick would show in pending), so an over-eager classFill cannot hide by
// acting on both engines alike.
func (e *Engine) tickRef(t *testing.T) {
	t.Helper()
	e.applyFaults(e.slot.Load())
	e.sweepStranded()
	e.classFillRef()
	resident := func() (sum int64) {
		for i := range e.classes.pending {
			sum += e.classes.pending[i].Value()
		}
		return sum
	}
	before := resident()
	e.tick()
	if after := resident(); after != before {
		t.Fatalf("slot %d: classFill moved %d frames the reference fill left queued", e.slot.Load()-1, before-after)
	}
}

// checkClassOcc verifies the occupancy invariant: bit (i,j) is set
// exactly when PIFO (i,j) holds a frame, and pending[i] is the row's
// frame count.
func checkClassOcc(t *testing.T, e *Engine, who string, slot int) {
	t.Helper()
	ct := e.classes
	for i := 0; i < e.n; i++ {
		frames := 0
		for j := 0; j < e.n; j++ {
			l := ct.queues.Len(i, j)
			frames += l
			if occ := ct.queues.Occupied(i).Get(j); occ != (l > 0) {
				t.Fatalf("slot %d, %s engine: occupancy(%d,%d)=%v with %d queued", slot, who, i, j, occ, l)
			}
		}
		if got := ct.pending[i].Value(); got != int64(frames) {
			t.Fatalf("slot %d, %s engine: pending[%d]=%d with %d queued", slot, who, i, got, frames)
		}
	}
}

// delivery is the part of a delivered frame the differential compares.
type delivery struct {
	Src, Dst int
	Seq      uint64
	Class    int
	Departed int64
}

func drainDeliveries(e *Engine, into []delivery) []delivery {
	for j := range e.outs {
		for {
			select {
			case f := <-e.outs[j]:
				into = append(into, delivery{f.Src, f.Dst, f.Seq, f.Class, f.Departed})
				continue
			default:
			}
			break
		}
	}
	return into
}

// TestClassFillMatchesRef drives two engines — one filling through the
// occupancy rows, one through classFillRef — from a single seeded
// admission trace and fault schedule, and requires them to be
// indistinguishable slot by slot: the same admission verdicts, the same
// frames delivered in the same order, the same class ledger, and on
// both the occupancy invariant. The trace overloads one output so PIFOs
// fill to their bound, and the schedule fails and recovers the hot
// output, an input, and a port in both directions.
func TestClassFillMatchesRef(t *testing.T) {
	classes := []pifo.Class{
		{Name: "rt", Priority: 0, Weight: 4, SLOSlots: 16},
		{Name: "quick", Priority: 1, Weight: 2, SLOSlots: 64},
		{Name: "bulk", Priority: 2, Weight: 1},
	}
	type shape struct{ n, slots int }
	shapes := []shape{{10, 5000}, {67, 300}} // 67: rows span two words
	for _, sh := range shapes {
		for _, dp := range datapath.Names() {
			for _, fp := range []FaultPolicy{HoldStranded, DropStranded} {
				for _, rank := range pifo.Names() {
					name := fmt.Sprintf("n%d/%s/%s/%s", sh.n, dp, fp, rank)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						runClassFillDifferential(t, sh.n, sh.slots, dp, fp, rank, classes)
					})
				}
			}
		}
	}
}

func runClassFillDifferential(t *testing.T, n, slots int, dp string, fp FaultPolicy, rank string, classes []pifo.Class) {
	build := func() *Engine {
		cfg := Config{
			N: n, Datapath: dp, VOQCap: 4, OutCap: 8,
			Classes: classes, Rank: rank, ClassQCap: 12, FaultPolicy: fp,
		}
		if dp != datapath.CICQ {
			s, err := registry.New("lcf_central_rr", n, sched.Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheduler = s
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	got, want := build(), build()
	defer got.Close()
	defer want.Close()

	const hot = 2
	faults := map[int]func(e *Engine) error{
		slots * 2 / 10: func(e *Engine) error { return e.FailOutput(hot) },
		slots * 3 / 10: func(e *Engine) error { return e.RecoverOutput(hot) },
		slots * 4 / 10: func(e *Engine) error { return e.FailInput(5) },
		slots * 5 / 10: func(e *Engine) error { return e.RecoverInput(5) },
		slots * 6 / 10: func(e *Engine) error { return e.FailPort(3) },
		slots * 7 / 10: func(e *Engine) error { return e.Recover(3) },
	}
	r := rng.New(16)
	seq := uint64(0)
	var gotOut, wantOut []delivery
	for s := 0; s < slots; s++ {
		if f := faults[s]; f != nil {
			if err := f(got); err != nil {
				t.Fatal(err)
			}
			if err := f(want); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if !r.Bool(0.9) {
				continue
			}
			dst := r.Intn(n)
			if r.Bool(0.3) {
				dst = hot
			}
			class := r.Intn(len(classes))
			seq++
			ge := got.AdmitClass(i, dst, class, seq, 0, 0)
			we := want.AdmitClass(i, dst, class, seq, 0, 0)
			if (ge == nil) != (we == nil) || (ge != nil && ge.Error() != we.Error()) {
				t.Fatalf("slot %d: AdmitClass(%d,%d,%d) = %v, reference %v", s, i, dst, class, ge, we)
			}
		}
		got.tick()
		want.tickRef(t)
		gotOut = drainDeliveries(got, gotOut[:0])
		wantOut = drainDeliveries(want, wantOut[:0])
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Fatalf("slot %d: delivered\n %v\nreference\n %v", s, gotOut, wantOut)
		}
		if gs, ws := got.classSnapshot(), want.classSnapshot(); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("slot %d: class snapshot\n %+v\nreference\n %+v", s, gs, ws)
		}
		checkClassOcc(t, got, "rows", s)
		checkClassOcc(t, want, "reference", s)
	}
	st := got.Stats()
	if st.Delivered.Value() == 0 || st.Backpressured.Value() == 0 {
		t.Fatalf("trace too gentle: delivered %d, backpressured %d", st.Delivered.Value(), st.Backpressured.Value())
	}
	if fp == DropStranded && st.DroppedFault.Value() == 0 {
		t.Fatal("fault schedule dropped nothing under the drop policy")
	}
	if st.DroppedFault.Value() != want.Stats().DroppedFault.Value() {
		t.Fatalf("DroppedFault %d, reference %d", st.DroppedFault.Value(), want.Stats().DroppedFault.Value())
	}
}

// TestClassTierFootprint pins the tier's construction cost to the
// queue headers, not to n²·ClassQCap entries: at n=64 with 256-entry
// PIFOs the tier used to zero 84 MB, and at n=256 1.3 GB.
func TestClassTierFootprint(t *testing.T) {
	classes := []pifo.Class{{Name: "rt", Priority: 0, Weight: 4, SLOSlots: 16}, {Name: "bulk", Priority: 1, Weight: 1}}
	for _, tc := range []struct {
		n     int
		limit uint64
	}{{64, 4 << 20}, {256, 64 << 20}} {
		cfg := Config{Classes: classes, Rank: pifo.RankDeadline, ClassQCap: 256}
		var before, after goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		ct, err := newClassTier(tc.n, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > tc.limit {
			t.Errorf("n=%d: class tier allocated %d bytes at construction, want under %d", tc.n, grew, tc.limit)
		}
		goruntime.KeepAlive(ct)
	}
}
