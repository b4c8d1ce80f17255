package runtime_test

import (
	"fmt"
	"testing"

	rt "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sched/registry"
	"repro/internal/simswitch"
	"repro/internal/traffic"
)

// genArrivals pre-draws a Bernoulli/uniform arrival trace so the offline
// simulator and the live engine see byte-identical arrivals.
func genArrivals(n int, load float64, seed uint64, slots int) [][]int {
	gen := traffic.NewBernoulli(n, load, traffic.NewUniform(n), seed)
	arrivals := make([][]int, slots)
	for t := range arrivals {
		row := make([]int, n)
		for i := 0; i < n; i++ {
			row[i] = gen.Next(i)
		}
		gen.Advance()
		arrivals[t] = row
	}
	return arrivals
}

// TestRuntimeMatchesSimswitch drives the live engine in deterministic
// lockstep against the offline simulator with the same scheduler, seed and
// arrival trace, and asserts the two produce identical per-slot grant
// vectors.
// It covers every registered scheduler (registry.Names()), so a new
// registration is cross-checked automatically; both machines now share the
// switchcore datapath, making this a check on the two time-domain drivers,
// not on duplicated queue code. The weight-aware "lqf" entry additionally
// pins that both sides feed identical QueueLens to the scheduler.
//
// The only exclusion is "fifo": it schedules the single-FIFO-per-input
// switch organization (at most one request bit per row, built from HOL
// destinations) and panics on the VOQ-style multi-destination rows the
// live engine produces — the live engine has no FIFO organization.
//
// Alignment (DESIGN.md §7): simswitch's slot is promote → schedule → drain
// → arrivals, so slot t's arrivals are first schedulable in slot t+1. The
// engine linearizes admissions at the next snapshot, so "Tick, then admit
// slot t's arrivals" puts both machines in the same state at every
// schedule call. Queue capacities are set high enough that neither side
// ever hits a bound (a blocked PQ promotion has no engine analogue).
func TestRuntimeMatchesSimswitch(t *testing.T) {
	covered := 0
	for _, name := range registry.Names() {
		if name == "fifo" {
			continue // FIFO-organization scheduler; no VOQ analogue (see above)
		}
		covered++
		t.Run(name, func(t *testing.T) { lockstepCompare(t, name, 8, 2000) })
	}
	if covered < 2 {
		t.Fatalf("lockstep covered %d schedulers; registry looks broken", covered)
	}
}

// TestRuntimeMatchesSimswitchOddWidths repeats the lockstep cross-check at
// non-word-multiple widths (17, 63, 65) for the schedulers rebuilt on the
// word-parallel kernels, where last-word masking bugs would live. Fewer
// slots and schedulers than the n=8 sweep keep the runtime sane; the
// kernels themselves are pinned bit-exact against their references across
// n ∈ 1..65 by the in-package differential tests.
func TestRuntimeMatchesSimswitchOddWidths(t *testing.T) {
	for _, n := range []int{17, 63, 65} {
		for _, name := range []string{"lcf_central_rr", "lcf_dist", "islip", "pim", "rrm"} {
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				lockstepCompare(t, name, n, 300)
			})
		}
	}
}

// lockstepCompare drives the live engine in deterministic lockstep against
// the offline simulator with the same scheduler, seed and arrival trace,
// asserting identical per-slot grant vectors (see
// TestRuntimeMatchesSimswitch for the slot-alignment argument).
func lockstepCompare(t *testing.T, name string, n, slots int) {
	const (
		load = 0.85
		seed = 42
		cap  = 4096
	)
	arrivals := genArrivals(n, load, seed, slots)
	opts := sched.Options{Iterations: 4, Seed: 99}

	// Offline reference: record each slot's grant vector.
	simSched, err := registry.New(name, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	var simGrants [][]int
	_, err = simswitch.Run(simswitch.Config{
		N:            n,
		Mode:         simswitch.VOQ,
		Scheduler:    simSched,
		Gen:          traffic.NewTrace(n, arrivals),
		VOQCap:       cap,
		PQCap:        cap,
		MeasureSlots: int64(slots),
		Validate:     true,
		Trace: func(ev simswitch.TraceEvent) {
			simGrants = append(simGrants, append([]int(nil), ev.Grants.Src...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Live engine, lockstep.
	rtSched, err := registry.New(name, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rtGrants [][]int
	e, err := rt.New(rt.Config{
		N:         n,
		Scheduler: rtSched,
		VOQCap:    cap,
		OutCap:    4,
		OnSlot: func(ev rt.SlotEvent) {
			rtGrants = append(rtGrants, append([]int(nil), ev.Grants.Src...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var deliveredRT int64
	for tt := 0; tt < slots; tt++ {
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
					deliveredRT++
					continue
				default:
				}
				break
			}
		}
	}

	if len(simGrants) != slots || len(rtGrants) != slots {
		t.Fatalf("recorded %d sim / %d runtime grant vectors, want %d", len(simGrants), len(rtGrants), slots)
	}
	for tt := 0; tt < slots; tt++ {
		if err := equalGrants(simGrants[tt], rtGrants[tt]); err != nil {
			t.Fatalf("slot %d: %v\n  sim: %v\n  rt:  %v", tt, err, simGrants[tt], rtGrants[tt])
		}
	}
	if d := e.Snapshot().Delivered; d != deliveredRT {
		t.Fatalf("engine counted %d deliveries, consumer saw %d", d, deliveredRT)
	}
}

// equalGrants compares two per-output grant vectors (GrantSet.Src).
func equalGrants(a, b []int) error {
	for j := range a {
		if a[j] != b[j] {
			return fmt.Errorf("output %d granted to input %d vs %d", j, a[j], b[j])
		}
	}
	return nil
}

// TestLockstepConservation runs a longer lockstep session and checks frame
// conservation: admitted = delivered + backlog, with no wasted grants for
// a correct scheduler.
func TestLockstepConservation(t *testing.T) {
	const (
		n     = 16
		slots = 5000
	)
	s, err := registry.New("lcf_central_rr", n, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := rt.New(rt.Config{N: n, Scheduler: s, VOQCap: 64, OutCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	gen := traffic.NewBernoulli(n, 0.9, traffic.NewUniform(n), 7)
	var admitted, refused, delivered int64
	for tt := 0; tt < slots; tt++ {
		e.Tick()
		for i := 0; i < n; i++ {
			dst := gen.Next(i)
			if dst == traffic.NoPacket {
				continue
			}
			if err := e.Admit(i, dst, 0, 0); err != nil {
				refused++
			} else {
				admitted++
			}
		}
		gen.Advance()
		for j := 0; j < n; j++ {
			for {
				select {
				case <-e.Output(j):
					delivered++
					continue
				default:
				}
				break
			}
		}
	}
	s1 := e.Snapshot()
	if s1.Admitted != admitted || s1.Backpressured != refused {
		t.Fatalf("admission accounting: snapshot %d/%d, local %d/%d", s1.Admitted, s1.Backpressured, admitted, refused)
	}
	if s1.Delivered != delivered {
		t.Fatalf("delivery accounting: snapshot %d, consumer %d", s1.Delivered, delivered)
	}
	if s1.Admitted != s1.Delivered+s1.Backlog {
		t.Fatalf("conservation: admitted %d != delivered %d + backlog %d", s1.Admitted, s1.Delivered, s1.Backlog)
	}
	if s1.WastedGrants != 0 {
		t.Fatalf("wasted grants %d, want 0", s1.WastedGrants)
	}
	if s1.MatchRatio <= 0 || s1.MatchRatio > 1 {
		t.Fatalf("match ratio %g out of (0,1]", s1.MatchRatio)
	}
}
