package runtime_test

import (
	goruntime "runtime"
	"testing"
	"time"

	rt "repro/internal/runtime"
)

// startWedged starts a live two-port engine whose output 0 nobody reads:
// one frame fills its one-frame channel and two more stay queued, so every
// slot runs — the switch is never empty — and none moves a frame.
func startWedged(t *testing.T, period time.Duration) *rt.Engine {
	t.Helper()
	e := startLive(t, rt.Config{N: 2, OutCap: 1, SlotPeriod: period})
	for seq := uint64(0); seq < 3; seq++ {
		if err := e.Admit(0, 0, seq, 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(parkTimeout)
	for len(e.Output(0)) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("output 0 still empty after %v", parkTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return e
}

// slotsOver counts the slots e runs in about d, timed from just after a
// slot, and returns the count with the wall time it was counted over.
func slotsOver(e *rt.Engine, d time.Duration) (slots int64, elapsed time.Duration) {
	s0 := e.Slot()
	for e.Slot() == s0 {
		goruntime.Gosched()
	}
	s0, t0 := e.Slot(), time.Now()
	time.Sleep(d)
	return e.Slot() - s0, time.Since(t0)
}

// TestLiveClockHoldsPeriod: a live engine with a held backlog runs a slot
// every period at lcfd's default 200 µs, at least 0.8 of the asked rate.
// A clock waiting on Go timers holds it near a fifth of that, because the
// netpoller rounds a timer wait under 1 ms up to a millisecond.
func TestLiveClockHoldsPeriod(t *testing.T) {
	const period = 200 * time.Microsecond
	e := startWedged(t, period)
	defer e.Close()
	slots, elapsed := slotsOver(e, 200*time.Millisecond)
	rate, asked := float64(slots)/elapsed.Seconds(), 1/period.Seconds()
	if rate < 0.8*asked {
		t.Errorf("%d slots in %v: %.0f slots/s, asked %.0f; a bare SlotClock held %.0f in this run",
			slots, elapsed, rate, asked, rt.ClockRate(period, 1000))
	}
	t.Logf("%.0f slots/s at %v (asked %.0f)", rate, period, asked)
}

// TestLiveClockStalledSlotsWait: slots that move nothing — every request
// masked by a full output — still wait out their period rather than spin,
// also when the arbiter shares one processor with everything else.
func TestLiveClockStalledSlotsWait(t *testing.T) {
	const period = time.Millisecond
	for _, procs := range []int{0, 1} {
		func() {
			if procs > 0 {
				defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
			}
			e := startWedged(t, period)
			defer e.Close()
			slots, elapsed := slotsOver(e, 30*period)
			if limit := int64(elapsed/period) + 1; slots > limit {
				t.Errorf("GOMAXPROCS %d: %d stalled slots in %v, want at most %d", goruntime.GOMAXPROCS(0), slots, elapsed, limit)
			}
		}()
	}
}

// TestLiveClockFirstSlotAfterWake: the first slot after a park runs at
// once when the last slot is older than a period, and waits out the rest
// of the period when it is younger, so slots stay a period apart.
func TestLiveClockFirstSlotAfterWake(t *testing.T) {
	const period = 50 * time.Millisecond
	ran := make(chan time.Time, 2) // end of every slot that dispatched a frame
	e := startLive(t, rt.Config{N: 2, SlotPeriod: period, OnSlot: func(ev rt.SlotEvent) {
		if ev.Matched > 0 {
			ran <- time.Now()
		}
	}})
	defer e.Close()
	slotEnd := func() time.Time {
		t.Helper()
		select {
		case at := <-ran:
			return at
		case <-time.After(parkTimeout):
			t.Fatalf("no dispatching slot within %v", parkTimeout)
			panic("unreachable")
		}
	}

	waitParks(t, e, 1)
	time.Sleep(period) // the last slot is now older than a period
	admitted := time.Now()
	if err := e.Admit(0, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	receive(t, e, 1)
	first := slotEnd()
	if waited := first.Sub(admitted); waited > period/2 {
		t.Errorf("first slot after a long park ran %v after the admission, want at once", waited)
	}

	waitParks(t, e, 2) // parked again right after that slot
	if err := e.Admit(1, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	receive(t, e, 0)
	if gap := slotEnd().Sub(first); gap < period-5*time.Millisecond || gap > 2*period {
		t.Errorf("a wake a moment after a slot ran the next %v later, want the rest of the %v period", gap, period)
	}
}

// TestCloseWaitsForConsumer: Close drains a deep backlog toward one output
// to a consumer that reads it, in both modes, and loses nothing to a
// consumer that is merely behind. Live, at a 1 µs slot, the drain runs
// its slots back to back instead of sleeping a timer per slot: under
// 100 ms for 3 200 frames, where a timer per slot took ~360 ms (the bound
// is not checked under -race, whose slots alone take longer).
func TestCloseWaitsForConsumer(t *testing.T) {
	const n, perInput = 16, 200
	for _, period := range []time.Duration{0, time.Microsecond} {
		cfg := rt.Config{N: n, Scheduler: newScheduler(t, "lcf_central_rr", n), SlotPeriod: period}
		e, err := rt.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if period > 0 {
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			for k := 0; k < perInput; k++ {
				if err := e.Admit(i, 0, uint64(k), 0); err != nil {
					t.Fatalf("slot period %v: Admit(%d, 0): %v", period, i, err)
				}
			}
		}
		got := make(chan int)
		go func() {
			c := 0
			for range e.Output(0) {
				c++
			}
			got <- c
		}()
		start := time.Now()
		e.Close()
		took := time.Since(start)
		if c := <-got; c != n*perInput {
			t.Errorf("slot period %v: consumer read %d of %d frames", period, c, n*perInput)
		}
		if u := e.Stats().Undrained.Value(); u != 0 {
			t.Errorf("slot period %v: %d frames undrained", period, u)
		}
		if period > 0 && !raceEnabled && took > 100*time.Millisecond {
			t.Errorf("live drain of %d frames at %v took %v, want under 100 ms", n*perInput, period, took)
		}
		t.Logf("slot period %v: Close took %v", period, took)
	}
}
