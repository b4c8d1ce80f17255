package runtime_test

import (
	"errors"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/datapath"
	"repro/internal/matching"
	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/simswitch"
	"repro/internal/traffic"
)

// runLockstep drives a lockstep engine through a fixed arrival trace:
// "Tick, then admit slot t's arrivals, then drain every output". The
// per-slot observations land in the slices the engine's OnSlot appends
// to (see newLockstepEngine).
func runLockstep(t *testing.T, e *rt.Engine, arrivals [][]int) {
	t.Helper()
	n := e.N()
	for tt := range arrivals {
		e.Tick()
		for i, dst := range arrivals[tt] {
			if dst == traffic.NoPacket {
				continue
			}
			if err := e.Admit(i, dst, uint64(tt), 0); err != nil {
				t.Fatalf("slot %d: Admit(%d,%d): %v", tt, i, dst, err)
			}
		}
		for j := 0; j < n; j++ {
			for {
				select {
				case <-e.Output(j):
					continue
				default:
				}
				break
			}
		}
	}
}

func newLockstepEngine(t *testing.T, n int, pipeline bool, shards int, matches *[][]int, matchedPerSlot *[]int) *rt.Engine {
	t.Helper()
	s, err := registry.New("lcf_central_rr", n, sched.Options{Iterations: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	e, err := rt.New(rt.Config{
		N:         n,
		Scheduler: s,
		VOQCap:    4096,
		OutCap:    4,
		Pipeline:  pipeline,
		Shards:    shards,
		OnSlot: func(ev rt.SlotEvent) {
			*matches = append(*matches, append([]int(nil), ev.Match.InToOut...))
			*matchedPerSlot = append(*matchedPerSlot, ev.Matched)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPipelineZeroMissLockstep is the no-drift pin for speculative
// pipelining: under lockstep driving with consumers that always drain,
// speculation can never miss (nothing invalidates a grant between
// snapshot and dispatch), so the pipelined engine must dispatch exactly
// the inline engine's matching sequence delayed by one slot — same
// matchings, same per-slot cardinalities, zero misses, every dispatch a
// hit. Shards > 1 variants additionally pin that sharding the
// snapshot/dispatch phases changes nothing about the decisions.
func TestPipelineZeroMissLockstep(t *testing.T) {
	cases := []struct {
		n, slots, shards int
	}{
		{8, 400, 1},
		{8, 400, 4}, // forced sharding at tiny n: pool correctness, not speed
		{64, 200, 1},
		{256, 60, 1},
		{256, 60, 3}, // uneven split: ranges 85/85/86
	}
	for _, tc := range cases {
		tc := tc
		name := "n" + itoa(tc.n) + "_shards" + itoa(tc.shards)
		t.Run(name, func(t *testing.T) {
			arrivals := genArrivals(tc.n, 0.85, 42, tc.slots)

			var inlineMatches, pipeMatches [][]int
			var inlineMatched, pipeMatched []int
			inline := newLockstepEngine(t, tc.n, false, 1, &inlineMatches, &inlineMatched)
			pipe := newLockstepEngine(t, tc.n, true, tc.shards, &pipeMatches, &pipeMatched)
			defer inline.Close()
			defer pipe.Close()

			runLockstep(t, inline, arrivals)
			runLockstep(t, pipe, arrivals)

			if len(inlineMatches) != tc.slots || len(pipeMatches) != tc.slots {
				t.Fatalf("recorded %d inline / %d pipelined slots, want %d",
					len(inlineMatches), len(pipeMatches), tc.slots)
			}
			// Slot 0 only primes the pipeline: nothing to dispatch.
			for i, g := range pipeMatches[0] {
				if g != matching.Unmatched {
					t.Fatalf("pipelined slot 0 dispatched %d->%d; want empty", i, g)
				}
			}
			// Slot t+1 dispatches what inline decided in slot t.
			for tt := 0; tt+1 < tc.slots; tt++ {
				if err := equalMatch(inlineMatches[tt], pipeMatches[tt+1]); err != nil {
					t.Fatalf("slot %d vs %d: %v\n  inline: %v\n  pipe:   %v",
						tt, tt+1, err, inlineMatches[tt], pipeMatches[tt+1])
				}
				if inlineMatched[tt] != pipeMatched[tt+1] {
					t.Fatalf("slot %d: inline dispatched %d, pipelined (slot %d) dispatched %d",
						tt, inlineMatched[tt], tt+1, pipeMatched[tt+1])
				}
			}

			st := pipe.Stats()
			if misses := st.SpecMisses.Value(); misses != 0 {
				t.Fatalf("lockstep speculation missed %d times; want 0", misses)
			}
			if st.SpecRepairs.Value() != 0 || st.WastedGrants.Value() != 0 {
				t.Fatalf("repairs %d wasted %d; want 0/0",
					st.SpecRepairs.Value(), st.WastedGrants.Value())
			}
			if hits, matched := st.SpecHits.Value(), st.Matched.Value(); hits != matched {
				t.Fatalf("spec hits %d != dispatched %d (every dispatch must be a validated hit)",
					hits, matched)
			}
		})
	}
}

// TestPipelineMatchesSimswitchSpec pins the live pipelined engine
// against the simulator's SpecPipeline mode: both implement the same
// dispatch-validate-then-snapshot slot, so with identical scheduler
// state and arrivals their applied matchings must agree slot for slot —
// the speculative analogue of TestRuntimeMatchesSimswitch.
func TestPipelineMatchesSimswitchSpec(t *testing.T) {
	const (
		n     = 16
		slots = 600
		seed  = 42
	)
	arrivals := genArrivals(n, 0.85, seed, slots)
	opts := sched.Options{Iterations: 4, Seed: 99}

	simSched, err := registry.New("lcf_central_rr", n, opts)
	if err != nil {
		t.Fatal(err)
	}
	var simMatches [][]int
	simRes, err := simswitch.Run(simswitch.Config{
		N:            n,
		Mode:         simswitch.VOQ,
		Scheduler:    simSched,
		Gen:          traffic.NewTrace(n, arrivals),
		VOQCap:       4096,
		PQCap:        4096,
		MeasureSlots: int64(slots),
		SpecPipeline: true,
		Validate:     true,
		Trace: func(ev simswitch.TraceEvent) {
			simMatches = append(simMatches, append([]int(nil), ev.Match.InToOut...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.SpecMisses != 0 {
		t.Fatalf("simulator speculation missed %d times under fault-free lockstep; want 0", simRes.SpecMisses)
	}

	var pipeMatches [][]int
	var pipeMatched []int
	pipe := newLockstepEngine(t, n, true, 1, &pipeMatches, &pipeMatched)
	defer pipe.Close()
	runLockstep(t, pipe, arrivals)

	if len(simMatches) != slots || len(pipeMatches) != slots {
		t.Fatalf("recorded %d sim / %d engine slots, want %d", len(simMatches), len(pipeMatches), slots)
	}
	for tt := 0; tt < slots; tt++ {
		if err := equalMatch(simMatches[tt], pipeMatches[tt]); err != nil {
			t.Fatalf("slot %d: %v\n  sim:    %v\n  engine: %v", tt, err, simMatches[tt], pipeMatches[tt])
		}
	}
	if hits := pipe.Stats().SpecHits.Value(); hits != simRes.SpecHits {
		t.Fatalf("engine %d spec hits, simulator %d", hits, simRes.SpecHits)
	}
}

// TestPipelineRefusesCICQ: the CICQ datapath's arbitration mutates live
// crosspoint state (PipelineSafe false), so New must reject the combo.
func TestPipelineRefusesCICQ(t *testing.T) {
	_, err := rt.New(rt.Config{N: 4, Datapath: datapath.CICQ, Pipeline: true})
	if !errors.Is(err, rt.ErrUnsupported) {
		t.Fatalf("New(cicq, Pipeline) = %v, want ErrUnsupported", err)
	}
}

// TestShardsRefuseCICQ: the sharding contract (rows are disjoint, a
// grant set is a permutation) is the VOQ core's. CICQ's SnapshotRow is
// its dispatch arbiter and writes column state every row shares, so a
// forced pool is refused like Pipeline is, while 0 and 1 stay legal.
func TestShardsRefuseCICQ(t *testing.T) {
	for _, k := range []int{2, 4} {
		if _, err := rt.New(rt.Config{N: 8, Datapath: datapath.CICQ, Shards: k}); !errors.Is(err, rt.ErrUnsupported) {
			t.Errorf("New(cicq, Shards %d) = %v, want ErrUnsupported", k, err)
		}
	}
	for _, k := range []int{0, 1} {
		e, err := rt.New(rt.Config{N: 8, Datapath: datapath.CICQ, Shards: k})
		if err != nil {
			t.Fatalf("New(cicq, Shards %d): %v", k, err)
		}
		e.Close()
	}
}

// TestCICQAutoShardsStayOff: Shards 0 auto-engages the pool at n ≥ 256
// on any multi-core host, and on CICQ that ran SnapshotRow — which
// reads and writes the shared colCnt/colOcc/scratch — from every
// worker at once. The default CICQ engine at its benchmarked width must
// stay on the arbiter goroutine: no pool worker may appear (and under
// -race this is the run that used to trip the detector).
func TestCICQAutoShardsStayOff(t *testing.T) {
	const n = 256
	base := goruntime.NumGoroutine()
	e, err := rt.New(rt.Config{N: n, Datapath: datapath.CICQ})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for slot := 0; slot < 50; slot++ {
		for i := 0; i < n; i++ {
			// Eight hot columns, so rows in different shards would read
			// and bump the same colCnt entries.
			if err := e.Admit(i, (i+slot)%8, uint64(slot), 0); err != nil {
				t.Fatalf("slot %d: Admit(%d): %v", slot, i, err)
			}
		}
		e.Tick()
		for j := 0; j < n; j++ {
			for len(e.Output(j)) > 0 {
				<-e.Output(j)
			}
		}
	}
	if got := goruntime.NumGoroutine(); got > base {
		t.Fatalf("lockstep CICQ engine grew %d goroutines at n=%d with default Shards: the shard pool engaged", got-base, n)
	}
}

// TestPipelineCloseReleasesWorkers: the pipeline compute worker and the
// shard pool are goroutines the engine owns; Close (both the never-
// ticked and the ticked paths) must release them.
func TestPipelineCloseReleasesWorkers(t *testing.T) {
	base := goruntime.NumGoroutine()

	// Never ticked: workers were never launched; Close must still return.
	e1, err := rt.New(rt.Config{N: 8, Scheduler: newScheduler(t, "lcf_central_rr", 8), Pipeline: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	e1.Close() // idempotent

	// Ticked: worker and pool are live; Close must join and release them.
	e2, err := rt.New(rt.Config{N: 8, Scheduler: newScheduler(t, "lcf_central_rr", 8), Pipeline: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := e2.Admit(i, (i+1)%8, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 4; s++ {
		e2.Tick()
	}
	e2.Close()

	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := goruntime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after Close, %d before New (worker or pool leaked)", got, base)
	}
}

// FuzzSpecValidateRepair feeds adversarial interleavings of admissions,
// link faults, consumer stalls and ticks into a pipelined engine and
// checks the speculation-repair invariants after every slot: exact frame
// conservation (admitted = delivered + dropped + resident), miss
// accounting (repairs ≤ misses ≤ wasted grants, hits + misses never
// exceed the decisions made), and a clean post-Close audit where every
// admitted frame lands in exactly one bucket.
func FuzzSpecValidateRepair(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x00, 0x33}, uint8(0))
	f.Add([]byte{0x10, 0x21, 0x00, 0x42, 0x00, 0x52, 0x00}, uint8(1))
	f.Add([]byte{0x17, 0x00, 0x28, 0x00, 0x00, 0x48, 0x00, 0x17, 0x00}, uint8(3))
	f.Add([]byte{0x30, 0x31, 0x32, 0x00, 0x00, 0x00, 0x60, 0x61, 0x00}, uint8(2))

	f.Fuzz(func(t *testing.T, ops []byte, mode uint8) {
		const n = 8
		cfg := rt.Config{
			N:         n,
			Scheduler: newScheduler(t, "lcf_central_rr", n),
			VOQCap:    4,
			OutCap:    2,
			Pipeline:  true,
		}
		if mode&1 != 0 {
			cfg.FaultPolicy = rt.DropStranded
		}
		if mode&2 != 0 {
			cfg.Shards = 3
		}
		e, err := rt.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		var consumed int64

		check := func(op int) {
			admitted, delivered := st.Admitted.Value(), st.Delivered.Value()
			dropped, backlog := st.DroppedFault.Value(), st.Backlog.Value()
			if admitted != delivered+dropped+backlog {
				t.Fatalf("op %d: conservation broken: admitted %d != delivered %d + dropped %d + backlog %d",
					op, admitted, delivered, dropped, backlog)
			}
			hits, misses, repairs := st.SpecHits.Value(), st.SpecMisses.Value(), st.SpecRepairs.Value()
			if repairs > misses {
				t.Fatalf("op %d: %d repairs > %d misses", op, repairs, misses)
			}
			if misses > st.WastedGrants.Value() {
				t.Fatalf("op %d: %d misses > %d wasted grants", op, misses, st.WastedGrants.Value())
			}
			if hits != delivered {
				t.Fatalf("op %d: %d hits != %d delivered (every pipelined delivery is a validated hit)",
					op, hits, delivered)
			}
		}

		var seq uint64
		for k := 0; k < len(ops); k++ {
			b := ops[k]
			port := int(b&0x0f) % n
			switch b >> 4 {
			case 0: // tick
				e.Tick()
				check(k)
			case 1: // admit port -> port+1 (ignore backpressure/down)
				seq++
				err := e.Admit(port, (port+1)%n, seq, 0)
				if err != nil && !errors.Is(err, rt.ErrBackpressure) && !errors.Is(err, rt.ErrPortDown) {
					t.Fatalf("op %d: Admit: %v", k, err)
				}
			case 2: // admit port -> port (self-flow broadens the matrix)
				seq++
				err := e.Admit(port, port, seq, 0)
				if err != nil && !errors.Is(err, rt.ErrBackpressure) && !errors.Is(err, rt.ErrPortDown) {
					t.Fatalf("op %d: Admit: %v", k, err)
				}
			case 3:
				e.FailInput(port)
			case 4:
				e.FailOutput(port)
			case 5:
				e.RecoverInput(port)
			case 6:
				e.RecoverOutput(port)
			case 7: // drain one output completely
				for {
					select {
					case <-e.Output(port):
						consumed++
						continue
					default:
					}
					break
				}
			default: // tick more often than anything else
				e.Tick()
				check(k)
			}
		}
		e.Close()
		for j := 0; j < n; j++ {
			for range e.Output(j) {
				consumed++
			}
		}
		if admitted := st.Admitted.Value(); admitted != consumed+st.DroppedFault.Value()+st.Undrained.Value() {
			t.Fatalf("shutdown audit: admitted %d != consumed %d + dropped %d + undrained %d",
				admitted, consumed, st.DroppedFault.Value(), st.Undrained.Value())
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
