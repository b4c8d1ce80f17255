package runtime

import (
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTime is a timeSource that moves only when the clock uses it: each
// read advances it by step, as the wall clock moves under a spinning
// loop, and each sleep by the wait asked for plus the OS's overshoot:
// late for a sleep under timerWait, timerLate for one the wall clock
// would hand to a Go timer. It keeps counts, not lists, so a spin
// allocates nothing.
type fakeTime struct {
	t                     time.Time
	step, late, timerLate time.Duration
	reads                 int
	sleeps                int
	lastSleep             time.Duration
}

func (f *fakeTime) now() time.Time {
	f.reads++
	f.t = f.t.Add(f.step)
	return f.t
}

func (f *fakeTime) sleep(d time.Duration, stop <-chan struct{}) bool {
	f.sleeps++
	f.lastSleep = d
	select {
	case <-stop:
		return false
	default:
	}
	if d >= timerWait {
		f.t = f.t.Add(d + f.timerLate)
	} else {
		f.t = f.t.Add(d + f.late)
	}
	return true
}

// fakeStep is how far the fake clock moves per read: a spin to a 50 µs
// deadline takes 5 000 reads.
const fakeStep = 10 * time.Nanosecond

// fakeClock returns a clock on a fake time source that moves fakeStep per
// read, and the source.
func fakeClock(period time.Duration) (*SlotClock, *fakeTime) {
	f := &fakeTime{t: time.Unix(1_000_000, 0), step: fakeStep}
	return newSlotClock(period, f, nil), f
}

// yields runs f on one processor with another goroutine ready to run and
// reports whether f gave the processor up. A wait that only reads the
// clock keeps it; one that calls runtime.Gosched lets the goroutine run.
// f must not allocate, so that no garbage collection starts inside it,
// and none is running when it starts: a collection preempts f.
func yields(f func()) bool {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	goruntime.GC()
	var ran atomic.Bool
	done := make(chan struct{})
	go func() {
		ran.Store(true)
		close(done)
	}()
	f()
	yielded := ran.Load()
	<-done
	return yielded
}

// TestSlotClockSpinsShortWaits: a wait shorter than the timer slack spins
// on the clock to its deadline — it neither sleeps nor yields — and a
// wait of at least the slack sleeps once.
func TestSlotClockSpinsShortWaits(t *testing.T) {
	for _, period := range []time.Duration{time.Nanosecond, time.Microsecond, timerSlack, timerSlack + fakeStep, 200 * time.Microsecond} {
		c, f := fakeClock(period)
		due := c.next
		wait := due.Sub(f.t) - f.step // Wait's own read moves the clock one step
		var ran bool
		if yields(func() { ran = c.Wait(nil) }) {
			t.Errorf("period %v: the wait gave up the processor", period)
		}
		if !ran {
			t.Fatalf("period %v: Wait refused to run a slot", period)
		}
		if f.t.Before(due) {
			t.Errorf("period %v: the slot ran at %v, before its deadline %v", period, f.t, due)
		}
		wantSleeps := 0
		if wait >= timerSlack {
			wantSleeps = 1
		}
		if f.sleeps != wantSleeps {
			t.Errorf("a %v wait slept %d times, want %d", wait, f.sleeps, wantSleeps)
		}
		if got := c.stats.Sleeps.Value(); got != int64(wantSleeps) {
			t.Errorf("period %v: Sleeps counted %d, want %d", period, got, wantSleeps)
		}
	}
}

// TestSlotClockSleepsAfterStalledSlot: the wait after a stalled slot
// sleeps even when it is shorter than the timer slack, whether the
// stalled slot finished inside its period or overran it, and the clock
// counts how late the sleep woke.
func TestSlotClockSleepsAfterStalledSlot(t *testing.T) {
	const period, late = time.Microsecond, 56 * time.Microsecond
	for _, overrun := range []time.Duration{0, 3 * period} {
		c, f := fakeClock(period)
		f.late = late
		c.Wait(nil) // spins to the first deadline
		f.t = f.t.Add(overrun)
		c.Advance(true)
		if !c.Wait(nil) {
			t.Fatal("Wait refused to run a slot")
		}
		if f.sleeps != 1 || f.lastSleep >= timerSlack {
			t.Errorf("overrun %v: %d sleeps (last %v) after a stalled slot, want one sleep under the %v slack", overrun, f.sleeps, f.lastSleep, timerSlack)
		}
		if got := time.Duration(c.stats.Overshoot.Value()); got != late+fakeStep {
			t.Errorf("overrun %v: Overshoot counted %v, want the %v the sleep overslept plus the read after it", overrun, got, late)
		}
		// The next slot moves frames again: its wait spins.
		c.Advance(false)
		c.Wait(nil)
		if f.sleeps != 1 {
			t.Errorf("overrun %v: the wait after a slot that moved frames slept", overrun)
		}
	}
}

// TestSlotClockHoldsPeriodPastLateSleeps: on a source whose timer sleeps
// wake 300 µs late and whose OS sleeps wake 56 µs late — a 2-vCPU host's
// Go timer and nanosleep slack — a clock whose waits reach the timer
// learns to end those sleeps that much early and spin the rest: after its
// first few sleeps every slot runs within a microsecond of its deadline
// and none drops a period. A clock whose waits are all under timerWait
// (a 1 ms or 200 µs period) learns no lead and spins nothing: each wait
// is one OS sleep, as late as the OS makes it, which the next wait makes
// up, so no period drops either.
func TestSlotClockHoldsPeriodPastLateSleeps(t *testing.T) {
	const timerLate, osLate, slots, learnt = 300 * time.Microsecond, 56 * time.Microsecond, 200, 10
	for _, tc := range []struct {
		period, cost time.Duration
		maxLag       time.Duration
	}{
		{2 * time.Millisecond, 0, time.Microsecond},
		{2 * time.Millisecond, 500 * time.Microsecond, time.Microsecond},
		{5 * time.Millisecond, 3 * time.Millisecond, time.Microsecond},
		{time.Millisecond, 0, osLate + time.Microsecond},
		{time.Millisecond, 800 * time.Microsecond, osLate + time.Microsecond},
		{200 * time.Microsecond, 0, osLate + time.Microsecond},
	} {
		c, f := fakeClock(tc.period)
		f.late, f.timerLate = osLate, timerLate
		for k := 0; k < slots; k++ {
			due := c.next
			reads := f.reads
			if !c.Wait(nil) {
				t.Fatal("Wait refused to run a slot")
			}
			if k >= learnt {
				if !c.next.Equal(due) {
					t.Fatalf("period %v cost %v: slot %d dropped the periods up to %v", tc.period, tc.cost, k, c.next)
				}
				if lag := f.t.Sub(due); lag < 0 || lag > tc.maxLag {
					t.Fatalf("period %v cost %v: slot %d ran %v after its deadline, want [0, %v]", tc.period, tc.cost, k, lag, tc.maxLag)
				}
				if tc.period-tc.cost < timerWait && f.reads-reads > 2 {
					t.Fatalf("period %v cost %v: slot %d's wait read the clock %d times: it spun", tc.period, tc.cost, k, f.reads-reads)
				}
			}
			f.t = f.t.Add(tc.cost)
			c.Advance(false)
		}
		if tc.period-tc.cost < timerWait && c.lead != 0 {
			t.Fatalf("period %v cost %v: learnt a lead of %v from OS sleeps", tc.period, tc.cost, c.lead)
		}
	}
}

// TestSlotClockAdvance pins the clock's rules on a deadline that has
// already passed: a slot that moved frames is followed at once (the
// missed periods are dropped, not caught up), a slot that moved nothing
// while frames are queued waits out a whole period unless it slept before
// it ran.
func TestSlotClockAdvance(t *testing.T) {
	const period = time.Hour
	c, f := fakeClock(period)
	past := f.t.Add(-3 * period)

	c.next = past
	c.Advance(false)
	if want := past.Add(period); !c.next.Equal(want) {
		t.Fatalf("Advance(false) moved the deadline to %v, want one period on (%v)", c.next, want)
	}
	reads := f.reads
	if !c.Wait(nil) {
		t.Fatal("Wait refused to run a slot")
	}
	if f.sleeps != 0 || f.reads != reads+1 {
		t.Fatalf("an overdue slot waited: %d sleeps, %d clock reads", f.sleeps, f.reads-reads)
	}
	if !c.next.Equal(f.t) {
		t.Fatalf("the overdue slot kept its stale deadline %v, not now (%v): the missed periods would be caught up", c.next, f.t)
	}

	c.next = past
	c.Advance(true)
	if want := f.t.Add(period); !c.next.Equal(want) {
		t.Fatalf("a stalled slot left the next one due at %v, want a period from now (%v)", c.next, want)
	}

	// The same stalled slot after a sleep: the wake-up came late, and the
	// next slot may make it up at once.
	c.next, c.slept = past, true
	c.Advance(true)
	if want := past.Add(period); !c.next.Equal(want) {
		t.Fatalf("a stalled slot that slept first moved the deadline to %v, want %v", c.next, want)
	}

	// A deadline still ahead is kept: the late wake-up of one wait is made
	// up by the next, so the rate does not drift.
	ahead := f.t.Add(period)
	c.next, c.slept = ahead, false
	c.Advance(true)
	if want := ahead.Add(period); !c.next.Equal(want) {
		t.Fatalf("Advance(true) on a future deadline gave %v, want %v", c.next, want)
	}
}

// TestSlotClockDropsMissedPeriods: after a slot that overran many
// periods, the next slot runs at once and the one after it a whole period
// later — one slot for the missed periods, not a burst catching them up.
func TestSlotClockDropsMissedPeriods(t *testing.T) {
	const period = time.Microsecond
	c, f := fakeClock(period)
	c.Wait(nil)
	f.t = f.t.Add(1000 * period) // the slot overran a thousand periods
	c.Advance(false)
	reads := f.reads
	c.Wait(nil)
	if f.reads != reads+1 || f.sleeps != 0 {
		t.Fatalf("the slot after an overrun waited (%d reads, %d sleeps), want it at once", f.reads-reads, f.sleeps)
	}
	ranAt := f.t
	c.Advance(false)
	c.Wait(nil)
	if gap := f.t.Sub(ranAt); gap < period {
		t.Fatalf("the second slot after an overrun ran %v after the first, want a whole %v period", gap, period)
	}
}

// TestSlotClockStalledSlotsBetweenSleeps: a run of stalled slots sleeps
// at least every second slot, at periods under and over the timer slack,
// with and without an overshooting OS and whether each slot fits its
// period or overruns it.
func TestSlotClockStalledSlotsBetweenSleeps(t *testing.T) {
	for _, period := range []time.Duration{time.Microsecond, 20 * time.Microsecond, 200 * time.Microsecond} {
		for _, late := range []time.Duration{0, 56 * time.Microsecond} {
			for _, cost := range []time.Duration{0, period / 2, 3 * period} {
				c, f := fakeClock(period)
				f.late = late
				run := 0 // stalled slots since the last sleep
				for slot := 0; slot < 50; slot++ {
					before := f.sleeps
					c.Wait(nil)
					if f.sleeps > before {
						run = 0
					}
					if run++; run > 2 {
						t.Fatalf("period %v, late %v, slot cost %v: %d stalled slots ran without a sleep", period, late, cost, run)
					}
					f.t = f.t.Add(cost)
					c.Advance(true)
				}
			}
		}
	}
}

// TestSlotClockFirstSlotAfterPark: the first slot after a park runs at
// once when the last slot is older than a period, and otherwise waits out
// the rest of the period — spinning below the timer slack, sleeping above
// it.
func TestSlotClockFirstSlotAfterPark(t *testing.T) {
	for _, period := range []time.Duration{time.Microsecond, time.Millisecond} {
		// Parked for two periods: the slot runs at once.
		c, f := fakeClock(period)
		c.Wait(nil)
		c.Advance(false) // the switch emptied: the arbiter parks
		f.t = f.t.Add(2 * period)
		reads, sleeps := f.reads, f.sleeps
		c.Wait(nil)
		if f.reads != reads+1 || f.sleeps != sleeps {
			t.Errorf("period %v: the slot after a long park waited (%d reads, %d sleeps)", period, f.reads-reads, f.sleeps-sleeps)
		}

		// Woken a quarter period after a slot: it waits out the rest.
		c, f = fakeClock(period)
		c.Wait(nil)
		due := c.next.Add(period)
		c.Advance(false)
		f.t = f.t.Add(period / 4)
		sleeps = f.sleeps
		if yields(func() { c.Wait(nil) }) {
			t.Errorf("period %v: the wait after a short park gave up the processor", period)
		}
		if f.t.Before(due) {
			t.Errorf("period %v: the slot after a short park ran at %v, before its deadline %v", period, f.t, due)
		}
		want := 1
		if period < timerSlack {
			want = 0
		}
		if f.sleeps-sleeps != want {
			t.Errorf("period %v: the wait after a short park slept %d times, want %d", period, f.sleeps-sleeps, want)
		}
	}
}

// TestSlotClockWaitSeesStop: a closed stop ends each kind of wait — none
// for an overdue slot, a spin, a sleep after a stalled slot, a long sleep
// — and a due slot does not run once stop is closed.
func TestSlotClockWaitSeesStop(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	for _, tc := range []struct {
		wait    string
		ahead   time.Duration
		stalled bool
		sleeps  int
	}{
		{"none", -time.Second, false, 0},
		{"spin", time.Microsecond, false, 0},
		{"stalled sleep", time.Microsecond, true, 1},
		{"long sleep", time.Hour, false, 1},
	} {
		c, f := fakeClock(time.Hour)
		c.next, c.stalled = f.t.Add(tc.ahead), tc.stalled
		start := f.t
		var ran bool
		if yields(func() { ran = c.Wait(stop) }) {
			t.Errorf("%s: the wait gave up the processor", tc.wait)
		}
		if ran {
			t.Errorf("%s: Wait ran a slot after stop", tc.wait)
		}
		if f.sleeps != tc.sleeps {
			t.Errorf("%s: the wait slept %d times, want %d", tc.wait, f.sleeps, tc.sleeps)
		}
		if waited := f.t.Sub(start); waited > time.Second {
			t.Errorf("%s: Wait took %v to see stop", tc.wait, waited)
		}
	}
}

// TestWallClockOneTimer: the wall clock makes one timer and resets it, so
// a wait of a millisecond or more allocates nothing, and a closed stop
// ends such a wait at once and leaves the timer ready for the next one.
// It reads the wall clock, as do the TestLiveClock tests.
func TestWallClockOneTimer(t *testing.T) {
	var w wallClock
	allocs := testing.AllocsPerRun(5, func() {
		if !w.sleep(time.Millisecond, nil) {
			t.Fatal("a 1 ms sleep with no stop reported stop")
		}
	})
	if allocs != 0 {
		t.Errorf("a 1 ms wait allocated %.0f times, want 0", allocs)
	}

	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	if w.sleep(time.Hour, stop) {
		t.Error("an hour's sleep under a closed stop reported its deadline")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("an hour's sleep took %v to see stop", waited)
	}
	if !w.sleep(time.Millisecond, nil) {
		t.Error("the timer did not fire after a stopped wait")
	}
}
