package closfabric_test

import (
	"errors"
	"testing"

	cf "repro/internal/closfabric"
	"repro/internal/datapath"
	"repro/internal/rng"
	rt "repro/internal/runtime"
)

// tickOK advances the fabric one slot and fails the test on any
// conservation violation or link frame without a slab entry.
func tickOK(t *testing.T, f *cf.Fabric) {
	t.Helper()
	if err := f.Tick(); err != nil {
		t.Fatal(err)
	}
}

// drainOK ticks until the fabric is empty, failing if frames linger past
// the budget.
func drainOK(t *testing.T, f *cf.Fabric, maxSlots int) {
	t.Helper()
	left, err := f.Drain(maxSlots)
	if err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("%d frames still resident after %d drain slots", left, maxSlots)
	}
}

// TestFabricDeliversEndToEnd pushes one frame per external port through a
// small fabric and checks every delivery arrives at the right port with
// its identity intact.
func TestFabricDeliversEndToEnd(t *testing.T) {
	type got struct {
		src int
		seq uint64
	}
	deliveries := make(map[int]got)
	f, err := cf.New(cf.Config{
		M: 2, K: 2, R: 2, Engine: rt.Spec{Seed: 1},
		OnDeliver: func(d cf.Delivery) {
			if _, dup := deliveries[d.Dst]; dup {
				t.Fatalf("output %d delivered twice", d.Dst)
			}
			deliveries[d.Dst] = got{src: d.Src, seq: d.Seq}
			if d.Stamp != d.Seq+1000 {
				t.Fatalf("stamp not echoed: %+v", d)
			}
			if d.DeliveredSlot <= d.Admitted {
				t.Fatalf("delivery before admission: %+v", d)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := f.N()
	// A permutation: port p sends to port (p+1) mod n.
	for p := 0; p < n; p++ {
		if err := f.Admit(p, (p+1)%n, uint64(p), uint64(p)+1000); err != nil {
			t.Fatalf("Admit(%d): %v", p, err)
		}
	}
	drainOK(t, f, 50)
	st := f.Stats()
	if st.Delivered.Value() != int64(n) {
		t.Fatalf("delivered %d frames, want %d", st.Delivered.Value(), n)
	}
	for p := 0; p < n; p++ {
		d, ok := deliveries[(p+1)%n]
		if !ok || d.src != p || d.seq != uint64(p) {
			t.Fatalf("output %d got %+v, want src %d seq %d", (p+1)%n, d, p, p)
		}
	}
}

// TestFabricSustainsLoad09Uniform is the headline acceptance run: a
// C(4,4,4) fabric (16 external ports) under Bernoulli 0.9 uniform traffic
// must lose nothing under the hold policy — every admitted frame
// delivers, with conservation audited every slot.
func TestFabricSustainsLoad09Uniform(t *testing.T) {
	const (
		slots = 2000
		load  = 0.9
	)
	f, err := cf.New(cf.Config{
		M: 4, K: 4, R: 4,
		Engine: rt.Spec{Seed: 42, FaultPolicy: rt.HoldStranded},
		Select: cf.SelectLeastBacklogged,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := f.N()
	src := rng.NewPCG32(7, 1)
	offered := 0
	for s := 0; s < slots; s++ {
		for p := 0; p < n; p++ {
			if !src.Bool(load) {
				continue
			}
			offered++
			err := f.Admit(p, src.Intn(n), uint64(offered), 0)
			if err != nil && !errors.Is(err, cf.ErrBackpressure) {
				t.Fatalf("slot %d: Admit: %v", s, err)
			}
		}
		tickOK(t, f)
	}
	drainOK(t, f, 20*n*256)
	st := f.Stats()
	if st.Dropped.Value() != 0 {
		t.Fatalf("dropped %d frames under hold policy", st.Dropped.Value())
	}
	if st.Delivered.Value() != st.Injected.Value() {
		t.Fatalf("lost frames: injected %d, delivered %d", st.Injected.Value(), st.Delivered.Value())
	}
	// Sustaining the load means the fabric actually accepts the vast
	// majority of the offered traffic rather than hiding behind
	// backpressure.
	if min := int64(float64(offered) * 0.95); st.Injected.Value() < min {
		t.Fatalf("injected %d of %d offered frames (want ≥ %d): fabric is not sustaining load %.2f",
			st.Injected.Value(), offered, min, load)
	}
}

// TestFabricRoundRobinSpreadsMiddles checks the oblivious routing policy:
// a steady single-source flow must spread across every live middle switch.
func TestFabricRoundRobinSpreadsMiddles(t *testing.T) {
	f, err := cf.New(cf.Config{M: 4, K: 2, R: 2, Engine: rt.Spec{Seed: 3}, Select: cf.SelectRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 40
	sent := 0
	for sent < frames {
		if err := f.Admit(0, 3, uint64(sent), 0); err == nil {
			sent++
		}
		tickOK(t, f)
	}
	drainOK(t, f, 200)
	for c := 0; c < 4; c++ {
		if got := f.Stats().Routed[c].Value(); got != frames/4 {
			t.Fatalf("middle %d routed %d frames, want %d", c, got, frames/4)
		}
	}
}

// TestFabricLeastBackloggedAvoidsLoadedMiddle checks the adaptive policy:
// with one middle switch artificially congested, new admissions choose
// the others.
func TestFabricLeastBackloggedAvoidsLoadedMiddle(t *testing.T) {
	f, err := cf.New(cf.Config{M: 2, K: 2, R: 2, Engine: rt.Spec{Seed: 5}, Select: cf.SelectLeastBacklogged})
	if err != nil {
		t.Fatal(err)
	}
	// Congest middle 0 directly: park frames in its VOQs by admitting
	// into the middle engine and never ticking it forward relative to
	// the backlog (frames drain one per output per slot, so a burst
	// keeps it loaded for several slots).
	mid0 := f.Engine(1, 0)
	for i := 0; i < 8; i++ {
		if err := mid0.Admit(0, 1, uint64(1000+i), 0); err != nil {
			t.Fatal(err)
		}
	}
	// The synthetic congestion frames bypass Admit, so conservation
	// would misfire; account by checking routing only, without ticking.
	for i := 0; i < 4; i++ {
		if err := f.Admit(0, 2, uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Stats().Routed[1].Value(); got != 4 {
		t.Fatalf("loaded middle avoided %d of 4 admissions (routed[1]=%d, routed[0]=%d)",
			4-got, got, f.Stats().Routed[0].Value())
	}
}

// TestFabricAllMiddlesDown checks the no-path refusal: with every middle
// switch failed, Admit returns ErrNoMiddle and counts a rejection.
func TestFabricAllMiddlesDown(t *testing.T) {
	f, err := cf.New(cf.Config{M: 2, K: 2, R: 2, Engine: rt.Spec{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if err := f.FailMiddle(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Admit(0, 1, 1, 0); !errors.Is(err, cf.ErrNoMiddle) {
		t.Fatalf("Admit with all middles down: %v", err)
	}
	if got := f.Stats().Rejected.Value(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	if err := f.RecoverMiddle(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Admit(0, 1, 2, 0); err != nil {
		t.Fatalf("Admit after recovery: %v", err)
	}
	drainOK(t, f, 50)
	if f.Stats().Delivered.Value() != 1 {
		t.Fatalf("delivered %d, want 1", f.Stats().Delivered.Value())
	}
}

// TestFabricHoldSurvivesMiddleFailure parks frames inside a middle
// switch, kills it, and checks the hold policy keeps every frame alive
// through recovery — zero loss end to end, conservation every slot.
func TestFabricHoldSurvivesMiddleFailure(t *testing.T) {
	f, err := cf.New(cf.Config{
		M: 2, K: 2, R: 2,
		Engine: rt.Spec{Seed: 11, FaultPolicy: rt.HoldStranded},
		Select: cf.SelectRoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := f.N()
	sent := 0
	for s := 0; s < 8; s++ {
		for p := 0; p < n; p++ {
			if err := f.Admit(p, (p+s)%n, uint64(sent), 0); err == nil {
				sent++
			}
		}
		tickOK(t, f)
	}
	// Kill middle 0 with traffic in flight, run degraded, then recover.
	if err := f.FailMiddle(0); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		for p := 0; p < n; p++ {
			if err := f.Admit(p, (p+s)%n, uint64(sent), 0); err == nil {
				sent++
			}
		}
		tickOK(t, f)
	}
	if err := f.RecoverMiddle(0); err != nil {
		t.Fatal(err)
	}
	drainOK(t, f, 2000)
	st := f.Stats()
	if st.Dropped.Value() != 0 {
		t.Fatalf("dropped %d frames under hold policy", st.Dropped.Value())
	}
	if st.Delivered.Value() != st.Injected.Value() {
		t.Fatalf("lost frames across failure: injected %d, delivered %d",
			st.Injected.Value(), st.Delivered.Value())
	}
}

// TestFabricDropPolicyAccountsMiddleFailure is the drop-side mirror: with
// DropStranded, killing a middle flushes its resident frames, every drop
// is counted exactly once, and the slab leaks nothing (the OnDropped hook
// contract).
func TestFabricDropPolicyAccountsMiddleFailure(t *testing.T) {
	f, err := cf.New(cf.Config{
		M: 2, K: 2, R: 2,
		Engine: rt.Spec{Seed: 13, FaultPolicy: rt.DropStranded},
		Select: cf.SelectRoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := f.N()
	sent := 0
	for s := 0; s < 6; s++ {
		for p := 0; p < n; p++ {
			if err := f.Admit(p, (p+1)%n, uint64(sent), 0); err == nil {
				sent++
			}
		}
		tickOK(t, f)
	}
	if err := f.FailMiddle(1); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		tickOK(t, f)
	}
	drainOK(t, f, 2000)
	st := f.Stats()
	if st.Injected.Value() != st.Delivered.Value()+st.Dropped.Value() {
		t.Fatalf("books don't close: injected %d != delivered %d + dropped %d",
			st.Injected.Value(), st.Delivered.Value(), st.Dropped.Value())
	}
	if f.Resident() != 0 {
		t.Fatalf("%d slab entries leaked", f.Resident())
	}
}

// TestFabricConfigValidation checks constructor refusals: blocking
// topologies (clos.Rearrangeable false), unknown schedulers and oversized
// port spaces never produce a half-built fabric, and an engine spec the
// fabric does not compose is refused with ErrNotComposed.
func TestFabricConfigValidation(t *testing.T) {
	cases := []struct {
		cfg         cf.Config
		notComposed bool
	}{
		{cf.Config{M: 1, K: 2, R: 2}, false},                                        // m < k: not rearrangeable
		{cf.Config{M: 2, K: 2, R: 2, Engine: rt.Spec{Scheduler: "no_such"}}, false}, // unknown scheduler
		{cf.Config{M: 2, K: 0, R: 2}, false},                                        // degenerate k
		{cf.Config{M: 2, K: 2, R: 2, Select: MiddleSelect3}, false},                 // unknown selection
		{cf.Config{M: 2, K: 2, R: 2, Engine: rt.Spec{Iterations: -1}}, false},       // negative iterations
		{cf.Config{M: 2, K: 2, R: 2, Engine: rt.Spec{N: 4}}, true},                  // the fabric sizes its engines
		{cf.Config{M: 2, K: 2, R: 2, Engine: rt.Spec{Datapath: datapath.CICQ}}, true},
		{cf.Config{M: 2, K: 2, R: 2, Engine: rt.Spec{Flows: 64}}, true},
		{cf.Config{M: 2, K: 2, R: 2, Engine: rt.Spec{Classes: "rt:0,bulk:1"}}, true},
	}
	for i, tc := range cases {
		_, err := cf.New(tc.cfg)
		if err == nil {
			t.Errorf("case %d: New(%+v) accepted an invalid config", i, tc.cfg)
			continue
		}
		if got := errors.Is(err, cf.ErrNotComposed); got != tc.notComposed {
			t.Errorf("case %d: New(%+v) = %v; errors.Is(ErrNotComposed) = %t, want %t", i, tc.cfg, err, got, tc.notComposed)
		}
	}
}

// MiddleSelect3 is an out-of-range selection value for the validation test.
const MiddleSelect3 = cf.MiddleSelect(3)
