package flowtable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// fakePorts is a PortView for tests: settable backlogs and link masks.
type fakePorts struct {
	backlog []atomic.Int64
	down    []atomic.Bool
}

func newFakePorts(n int) *fakePorts {
	return &fakePorts{backlog: make([]atomic.Int64, n), down: make([]atomic.Bool, n)}
}

func (f *fakePorts) N() int              { return len(f.backlog) }
func (f *fakePorts) Backlog(p int) int64 { return f.backlog[p].Load() }
func (f *fakePorts) Up(p int) bool       { return !f.down[p].Load() }
func (f *fakePorts) set(p int, b int64)  { f.backlog[p].Store(b) }
func (f *fakePorts) fail(p int)          { f.down[p].Store(true) }
func (f *fakePorts) recover(p int)       { f.down[p].Store(false) }

func newTestTable(t *testing.T, cfg Config) *Table {
	t.Helper()
	tbl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestStickyAssignment: every later Steer of a resident flow returns
// the same port, regardless of how backlogs move — the property that
// keeps per-flow frame order intact across the VOQ fabric.
func TestStickyAssignment(t *testing.T) {
	for _, policy := range Names() {
		t.Run(policy, func(t *testing.T) {
			pv := newFakePorts(8)
			tbl := newTestTable(t, Config{Ports: pv, Capacity: 1024, Policy: policy, Seed: 42})
			first := make(map[uint64]int)
			for id := uint64(1); id <= 512; id++ {
				p, disp, err := tbl.Steer(id)
				if err != nil {
					t.Fatalf("Steer(%d): %v", id, err)
				}
				if disp != Admitted {
					t.Fatalf("Steer(%d) disposition = %v, want Admitted", id, disp)
				}
				first[id] = p
			}
			// Shuffle backlogs so load-aware policies would now choose
			// differently for a NEW flow — resident flows must not move.
			for p := 0; p < 8; p++ {
				pv.set(p, int64(1000-p*100))
			}
			for round := 0; round < 3; round++ {
				for id := uint64(1); id <= 512; id++ {
					p, disp, err := tbl.Steer(id)
					if err != nil {
						t.Fatalf("Steer(%d): %v", id, err)
					}
					if disp != Sticky {
						t.Fatalf("Steer(%d) disposition = %v, want Sticky", id, disp)
					}
					if p != first[id] {
						t.Fatalf("flow %d moved from port %d to %d", id, first[id], p)
					}
				}
			}
			if got := tbl.Stats().Resident; got != 512 {
				t.Fatalf("Resident = %d, want 512", got)
			}
			if got := tbl.Stats().Inserted; got != 512 {
				t.Fatalf("Inserted = %d, want 512", got)
			}
		})
	}
}

// TestServiceCounters: served counts accumulate per flow and feed the
// fairness summary built from the same moments as the simulator's Jain
// analysis.
func TestServiceCounters(t *testing.T) {
	pv := newFakePorts(4)
	tbl := newTestTable(t, Config{Ports: pv, Capacity: 64, Seed: 7})
	// Flow 1 served 10 times, flow 2 served 5, flow 3 once.
	for i := 0; i < 10; i++ {
		tbl.Steer(1)
	}
	for i := 0; i < 5; i++ {
		tbl.Steer(2)
	}
	tbl.Steer(3)
	for id, want := range map[uint64]uint64{1: 10, 2: 5, 3: 1} {
		if _, served, ok := tbl.Lookup(id); !ok || served != want {
			t.Fatalf("Lookup(%d) served = %d,%v want %d", id, served, ok, want)
		}
	}
	f := tbl.Fairness()
	if f.Flows != 3 {
		t.Fatalf("Fairness.Flows = %d, want 3", f.Flows)
	}
	// Jain over {10,5,1}: (16)²/(3·126) = 256/378.
	want := 256.0 / 378.0
	if diff := f.Jain - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("Jain = %v, want %v", f.Jain, want)
	}
	if f.MinShare != 1.0/16.0 || f.MaxShare != 10.0/16.0 {
		t.Fatalf("shares = %v..%v, want 1/16..10/16", f.MinShare, f.MaxShare)
	}
	var perPort int64
	for _, c := range f.FlowsPerPort {
		perPort += c
	}
	if perPort != 3 {
		t.Fatalf("FlowsPerPort sums to %d, want 3", perPort)
	}
}

// TestPo2NeverPicksDownPort: the steering invariant from the issue —
// with any subset of ports failed (but at least one up), every policy
// steers every new flow to an up port.
func TestPo2NeverPicksDownPort(t *testing.T) {
	for _, policy := range Names() {
		t.Run(policy, func(t *testing.T) {
			pv := newFakePorts(8)
			r := rng.NewPCG32(99, 1)
			id := uint64(0)
			for trial := 0; trial < 200; trial++ {
				// Random fault mask with at least one port up.
				for p := 0; p < 8; p++ {
					pv.recover(p)
				}
				downCount := r.Intn(8) // 0..7 ports down
				for k := 0; k < downCount; k++ {
					pv.fail(r.Intn(8))
				}
				for p := 0; p < 8; p++ {
					pv.set(p, int64(r.Intn(100)))
				}
				tbl := newTestTable(t, Config{Ports: pv, Capacity: 256, Policy: policy, Seed: uint64(trial)})
				for k := 0; k < 64; k++ {
					id++
					p, _, err := tbl.Steer(id)
					if err != nil {
						t.Fatal(err)
					}
					if !pv.Up(p) {
						t.Fatalf("policy %s steered flow %d to down port %d (trial %d)", policy, id, p, trial)
					}
				}
			}
		})
	}
}

// TestStickySurvivesFlapKeepPolicy: under KeepOnDown (the hold-policy
// pairing), a flow assigned to a port that flaps down and back up keeps
// its original assignment throughout — no rebalance, no move.
func TestStickySurvivesFlapKeepPolicy(t *testing.T) {
	pv := newFakePorts(4)
	tbl := newTestTable(t, Config{Ports: pv, Capacity: 64, Policy: PolicyPo2, Rehome: KeepOnDown, Seed: 3})
	p0, _, err := tbl.Steer(77)
	if err != nil {
		t.Fatal(err)
	}
	pv.fail(p0)
	p1, disp, err := tbl.Steer(77)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p0 || disp != Sticky {
		t.Fatalf("during outage: port %d disp %v, want sticky port %d", p1, disp, p0)
	}
	pv.recover(p0)
	p2, disp, err := tbl.Steer(77)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p0 || disp != Sticky {
		t.Fatalf("after recovery: port %d disp %v, want sticky port %d", p2, disp, p0)
	}
	if got := tbl.Stats().Rebalanced; got != 0 {
		t.Fatalf("Rebalanced = %d, want 0 under KeepOnDown", got)
	}
}

// TestRehomeOnDownMovesOffDownPort: under RehomeOnDown (the drop-policy
// pairing), a resident flow whose port fails is re-steered to an up
// port on its next frame and the rebalance is counted.
func TestRehomeOnDownMovesOffDownPort(t *testing.T) {
	pv := newFakePorts(4)
	tbl := newTestTable(t, Config{Ports: pv, Capacity: 64, Policy: PolicyLeast, Rehome: RehomeOnDown, Seed: 5})
	p0, _, err := tbl.Steer(123)
	if err != nil {
		t.Fatal(err)
	}
	pv.fail(p0)
	p1, disp, err := tbl.Steer(123)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p0 || !pv.Up(p1) {
		t.Fatalf("rehome picked port %d (old %d, up=%v)", p1, p0, pv.Up(p1))
	}
	if disp != Rebalanced {
		t.Fatalf("disposition = %v, want Rebalanced", disp)
	}
	if got := tbl.Stats().Rebalanced; got != 1 {
		t.Fatalf("Rebalanced = %d, want 1", got)
	}
	// The new assignment is itself sticky.
	p2, disp, _ := tbl.Steer(123)
	if p2 != p1 || disp != Sticky {
		t.Fatalf("post-rehome Steer = port %d disp %v, want sticky port %d", p2, disp, p1)
	}
}

// TestEpochEviction: flows idle past maxIdle epochs are evicted; active
// flows and recently-touched flows survive; evicted flows readmit as
// new.
func TestEpochEviction(t *testing.T) {
	pv := newFakePorts(4)
	tbl := newTestTable(t, Config{Ports: pv, Capacity: 256, Seed: 11})
	for id := uint64(1); id <= 100; id++ {
		tbl.Steer(id)
	}
	// Epoch 0 → 3; keep flows 1..10 warm at every epoch.
	for e := 0; e < 3; e++ {
		tbl.AdvanceEpoch()
		for id := uint64(1); id <= 10; id++ {
			tbl.Steer(id)
		}
	}
	evicted := tbl.EvictIdle(2) // flows last touched at epoch 0, now=3: idle 3 > 2
	if evicted != 90 {
		t.Fatalf("EvictIdle = %d, want 90", evicted)
	}
	if got := tbl.Stats().Resident; got != 10 {
		t.Fatalf("Resident = %d, want 10", got)
	}
	for id := uint64(1); id <= 10; id++ {
		if _, _, ok := tbl.Lookup(id); !ok {
			t.Fatalf("warm flow %d was evicted", id)
		}
	}
	if _, _, ok := tbl.Lookup(50); ok {
		t.Fatal("idle flow 50 survived eviction")
	}
	// Readmission is a fresh steering decision.
	_, disp, err := tbl.Steer(50)
	if err != nil || disp != Admitted {
		t.Fatalf("readmit: disp %v err %v, want Admitted", disp, err)
	}
}

// TestEvictSingle: explicit single-flow eviction and the backward-shift
// deletion invariant — after any deletion, every remaining flow is
// still findable (no broken probe chains, no tombstones).
func TestEvictSingle(t *testing.T) {
	pv := newFakePorts(4)
	// Tiny shard count so probe clusters actually form.
	tbl := newTestTable(t, Config{Ports: pv, Capacity: 512, Shards: 1, Seed: 13})
	const flows = 400
	for id := uint64(1); id <= flows; id++ {
		if _, _, err := tbl.Steer(id); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.NewPCG32(17, 2)
	alive := make(map[uint64]bool, flows)
	for id := uint64(1); id <= flows; id++ {
		alive[id] = true
	}
	for k := 0; k < 200; k++ {
		id := uint64(r.Intn(flows)) + 1
		want := alive[id]
		if got := tbl.Evict(id); got != want {
			t.Fatalf("Evict(%d) = %v, want %v", id, got, want)
		}
		alive[id] = false
		// Every remaining flow must still resolve.
		for fid, a := range alive {
			_, _, ok := tbl.Lookup(fid)
			if ok != a {
				t.Fatalf("after evicting %d: Lookup(%d) = %v, want %v", id, fid, ok, a)
			}
		}
	}
	want := int64(0)
	for _, a := range alive {
		if a {
			want++
		}
	}
	if got := tbl.Stats().Resident; got != want {
		t.Fatalf("Resident = %d, want %d", got, want)
	}
}

// TestTableFull: a shard refuses admissions past its ½ load factor with
// ErrTableFull, counts the rejection, and stays consistent.
func TestTableFull(t *testing.T) {
	pv := newFakePorts(4)
	tbl := newTestTable(t, Config{Ports: pv, Capacity: 8, Shards: 1, Seed: 19})
	_, perShard := tbl.Caps()
	cap := perShard / 2
	admitted := 0
	var rejected bool
	for id := uint64(1); id <= uint64(2*perShard); id++ {
		_, _, err := tbl.Steer(id)
		switch err {
		case nil:
			admitted++
		case ErrTableFull:
			rejected = true
		default:
			t.Fatal(err)
		}
	}
	if admitted != cap {
		t.Fatalf("admitted %d flows, want exactly %d (½ load factor)", admitted, cap)
	}
	if !rejected {
		t.Fatal("no admission was refused past capacity")
	}
	if got := tbl.Stats().Rejected; got == 0 {
		t.Fatal("Rejected counter not incremented")
	}
	// Resident flows still resolve, and eviction frees room.
	tbl.AdvanceEpoch()
	tbl.AdvanceEpoch()
	if n := tbl.EvictIdle(1); n != cap {
		t.Fatalf("EvictIdle = %d, want %d", n, cap)
	}
	if _, _, err := tbl.Steer(1 << 40); err != nil {
		t.Fatalf("Steer after eviction: %v", err)
	}
}

// TestConcurrentSteer: hammer the table from many goroutines with
// overlapping flow populations and concurrent epoch advances/evictions;
// the residency count must balance inserts minus evictions exactly.
// (The -race CI step makes this a memory-model check too.)
func TestConcurrentSteer(t *testing.T) {
	pv := newFakePorts(8)
	tbl := newTestTable(t, Config{Ports: pv, Capacity: 1 << 14, Shards: 32, Policy: PolicyPo2, Seed: 23})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewPCG32(uint64(w), 7)
			for i := 0; i < 20000; i++ {
				id := uint64(r.Intn(1 << 13)) // overlapping population
				if _, _, err := tbl.Steer(id); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent eviction pressure
		defer close(done)
		for i := 0; i < 50; i++ {
			tbl.AdvanceEpoch()
			tbl.EvictIdle(3)
		}
	}()
	wg.Wait()
	<-done
	st := tbl.Stats()
	if got, want := st.Resident, st.Inserted-st.Evicted; got != want {
		t.Fatalf("Resident = %d, want Inserted-Evicted = %d", got, want)
	}
	count := int64(0)
	tbl.Range(func(uint64, int, uint64) { count++ })
	if count != st.Resident {
		t.Fatalf("Range visited %d flows, Resident says %d", count, st.Resident)
	}
}

// TestSteerZeroAlloc pins the hot path at zero heap allocations for
// both the hit and the admit case, across all policies.
func TestSteerZeroAlloc(t *testing.T) {
	for _, policy := range Names() {
		t.Run(policy, func(t *testing.T) {
			pv := newFakePorts(16)
			tbl := newTestTable(t, Config{Ports: pv, Capacity: 1 << 16, Policy: policy, Seed: 29})
			var id atomic.Uint64
			if avg := testing.AllocsPerRun(1000, func() {
				tbl.Steer(id.Add(1)) // admit path
			}); avg != 0 {
				t.Fatalf("admit path allocates %v/op", avg)
			}
			if avg := testing.AllocsPerRun(1000, func() {
				tbl.Steer(5) // hit path
			}); avg != 0 {
				t.Fatalf("hit path allocates %v/op", avg)
			}
		})
	}
}

// TestConfigValidation pins constructor error cases.
func TestConfigValidation(t *testing.T) {
	pv := newFakePorts(4)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil ports", Config{Capacity: 10}},
		{"zero capacity", Config{Ports: pv}},
		{"negative shards", Config{Ports: pv, Capacity: 10, Shards: -1}},
		{"negative probe", Config{Ports: pv, Capacity: 10, MaxProbe: -1}},
		{"unknown policy", Config{Ports: pv, Capacity: 10, Policy: "rr"}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("New(%s) accepted invalid config", c.name)
		}
	}
}

// TestBacklogImbalance pins the imbalance summary: even load → 1,
// one-port concentration → n, down ports excluded.
func TestBacklogImbalance(t *testing.T) {
	pv := newFakePorts(4)
	if got := BacklogImbalance(pv); got != 0 {
		t.Fatalf("empty imbalance = %v, want 0", got)
	}
	for p := 0; p < 4; p++ {
		pv.set(p, 10)
	}
	if got := BacklogImbalance(pv); got != 1 {
		t.Fatalf("even imbalance = %v, want 1", got)
	}
	pv.set(0, 40)
	pv.set(1, 0)
	pv.set(2, 0)
	pv.set(3, 0)
	if got := BacklogImbalance(pv); got != 4 {
		t.Fatalf("concentrated imbalance = %v, want 4", got)
	}
	pv.fail(0)
	// Up ports all zero → 0 (no load to be imbalanced about).
	if got := BacklogImbalance(pv); got != 0 {
		t.Fatalf("imbalance over zero-load up ports = %v, want 0", got)
	}
}

// TestDispositionAndRehomeStrings covers the String methods (used in
// trace rendering and /flows JSON).
func TestDispositionAndRehomeStrings(t *testing.T) {
	for want, v := range map[string]fmt.Stringer{
		"sticky": Sticky, "new": Admitted, "rebalanced": Rebalanced,
		"keep": KeepOnDown, "rehome": RehomeOnDown,
	} {
		if got := v.String(); got != want {
			t.Errorf("%T String = %q, want %q", v, got, want)
		}
	}
}

// TestEvictIdleEpochSkew reproduces the mid-sweep epoch race in
// miniature. EvictIdle loads the epoch once; a Steer that lands after a
// concurrent AdvanceEpoch stamps its entry one epoch AHEAD of the
// sweep's view, and the unsigned age (now - e.epoch) then wraps to
// ~2^32 — the freshest flow in the table read as the stalest and was
// evicted on the spot. The skew is forced deterministically here by
// stamping the entry by hand; the concurrent shape is exercised by
// TestEvictIdleSteerRace below.
func TestEvictIdleEpochSkew(t *testing.T) {
	pv := newFakePorts(4)
	tbl := newTestTable(t, Config{Ports: pv, Capacity: 64, Policy: PolicyHash, Seed: 1})
	const id = 77
	if _, _, err := tbl.Steer(id); err != nil {
		t.Fatal(err)
	}
	// Stamp the resident entry one epoch ahead of the table clock —
	// exactly what a Steer racing a mid-sweep AdvanceEpoch produces.
	stampAhead(t, tbl, id, 1)
	if n := tbl.EvictIdle(3); n != 0 {
		t.Fatalf("EvictIdle evicted %d flows; the future-stamped flow is the freshest in the table", n)
	}
	if _, _, ok := tbl.Lookup(id); !ok {
		t.Fatal("flow vanished: epoch-skew eviction")
	}
	// And the entry ages normally from here: 4 epochs idle with
	// maxIdle=3 is a genuine eviction.
	for i := 0; i < 5; i++ {
		tbl.AdvanceEpoch()
	}
	if n := tbl.EvictIdle(3); n != 1 {
		t.Fatalf("EvictIdle = %d after 5 idle epochs, want 1", n)
	}
}

// TestEvictIdleSteerRace drives Steer, AdvanceEpoch and EvictIdle
// concurrently (run under -race in CI) and then checks the ledger:
// resident == inserted - evicted must hold at quiescence, and every
// flow steered after the last sweep must still be resident. Before the
// per-shard eviction accounting and the age-wrap guard, this test
// tripped both ways: Stats could catch the table-level evicted counter
// lagging the bucket deletes, and the skew wiped just-admitted flows.
func TestEvictIdleSteerRace(t *testing.T) {
	pv := newFakePorts(8)
	tbl := newTestTable(t, Config{Ports: pv, Capacity: 4096, Policy: PolicyHash, Seed: 9, Shards: 8})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 1)
			for !stop.Load() {
				// A sliding window of ids: old ones go idle, new ones appear.
				tbl.Steer(r.Uint64() % 2000)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			tbl.AdvanceEpoch()
			tbl.EvictIdle(1)
		}
		stop.Store(true)
	}()
	wg.Wait()
	st := tbl.Stats()
	if st.Resident != st.Inserted-st.Evicted {
		t.Fatalf("ledger broken at quiescence: resident %d != inserted %d - evicted %d",
			st.Resident, st.Inserted, st.Evicted)
	}
	// With the writers stopped and no sweep running, a fresh Steer must
	// survive any number of same-epoch sweeps.
	if _, _, err := tbl.Steer(999999); err != nil {
		t.Fatal(err)
	}
	tbl.EvictIdle(1)
	if _, _, ok := tbl.Lookup(999999); !ok {
		t.Fatal("freshly steered flow evicted by a same-epoch sweep")
	}
}
