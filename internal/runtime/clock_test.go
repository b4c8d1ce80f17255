package runtime

import (
	"testing"
	"time"
)

// TestSlotClockAdvance pins the clock's rules on a deadline that has
// already passed: a slot that moved frames is followed at once (the
// missed periods are dropped, not caught up), a slot that moved nothing
// while frames are queued waits out a whole period unless it slept before
// it ran.
func TestSlotClockAdvance(t *testing.T) {
	const period = time.Hour
	past := time.Now().Add(-3 * period)

	c := SlotClock{period: period, next: past}
	c.Advance(false)
	if want := past.Add(period); !c.next.Equal(want) {
		t.Fatalf("Advance(false) moved the deadline to %v, want one period on (%v)", c.next, want)
	}
	start := time.Now()
	if !c.Wait(nil) {
		t.Fatal("Wait refused to run a slot")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("an overdue slot waited %v", waited)
	}
	if c.next.Before(start) {
		t.Fatalf("the overdue slot kept its stale deadline %v: the missed periods would be caught up", c.next)
	}

	c = SlotClock{period: period, next: past}
	before := time.Now()
	c.Advance(true)
	if c.next.Before(before.Add(period)) {
		t.Fatalf("a stalled slot left the next one due at %v, under a period from now (%v)", c.next, before)
	}

	// The same stalled slot after a sleep: the wake-up came late, and the
	// next slot may make it up at once.
	c = SlotClock{period: period, next: past, slept: true}
	c.Advance(true)
	if want := past.Add(period); !c.next.Equal(want) {
		t.Fatalf("a stalled slot that slept first moved the deadline to %v, want %v", c.next, want)
	}

	// A deadline still ahead is kept: the late wake-up of one wait is made
	// up by the next, so the rate does not drift.
	ahead := time.Now().Add(period)
	c = SlotClock{period: period, next: ahead}
	c.Advance(true)
	if want := ahead.Add(period); !c.next.Equal(want) {
		t.Fatalf("Advance(true) on a future deadline gave %v, want %v", c.next, want)
	}
}

// TestSlotClockWaitSeesStop: a closed stop ends a wait of any length, and
// a due slot does not run once stop is closed.
func TestSlotClockWaitSeesStop(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	for _, next := range []time.Time{time.Now().Add(-time.Second), time.Now().Add(time.Hour)} {
		c := SlotClock{period: time.Hour, next: next}
		start := time.Now()
		if c.Wait(stop) {
			t.Errorf("Wait(next %v) ran a slot after stop", time.Until(next))
		}
		if waited := time.Since(start); waited > time.Second {
			t.Errorf("Wait(next %v) took %v to see stop", time.Until(next), waited)
		}
	}
}
