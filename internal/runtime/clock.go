package runtime

import "time"

// SlotClock is the repository's one slot pacer: the live arbiter, lcffab's
// fabric loop and lcfload's generator all run their slots on it. It is a
// deadline, not a time.Ticker: next is when the next slot is due, and each
// slot moves it on by one period from where it was due, not from when it
// ran, so a wake-up that comes late is made up by the next wait instead of
// drifting the rate.
//
// It does not wait on Go timers below a millisecond: when nothing else is
// runnable the netpoller rounds such a wait up to a whole millisecond,
// which would hold a 200 µs period to ~1 000 slots a second and make the
// first slot after a park wait ~1 ms whatever the period. Short waits
// sleep in the OS instead (shortSleep), and an overdue slot runs without
// sleeping at all.
//
// A SlotClock belongs to the one goroutine that runs the slots: Wait
// before each slot, Advance after it.
type SlotClock struct {
	period time.Duration
	next   time.Time
	// slept reports that the last wait slept before its slot ran.
	slept bool
}

// NewSlotClock returns a clock whose first slot is due one period from
// now.
func NewSlotClock(period time.Duration) *SlotClock {
	return &SlotClock{period: period, next: time.Now().Add(period)}
}

// Wait blocks until the next slot is due and reports whether the slot
// should run: false once stop is closed. A slot already due runs now and
// takes now as its deadline, which drops the periods it missed — an
// overrun slot is followed back to back by the next one, never by a burst
// catching up. The arbiter never yields here: a slot that keeps frames
// moving keeps its processor.
func (c *SlotClock) Wait(stop <-chan struct{}) bool {
	if now := time.Now(); now.Before(c.next) {
		if !sleep(c.next.Sub(now), stop) {
			return false
		}
		c.slept = true
	} else {
		c.next = now
		c.slept = false
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// Advance makes the next slot due one period after this one was. stalled
// is a slot that moved nothing while frames are queued (every request
// masked by a full output or a down link). When a stalled slot that did
// not sleep before it ran finds the next deadline already passed, the
// next slot is a whole period away instead of due at once, because
// whatever a stalled slot waits for — a consumer, a pump — needs the
// processor an overdue arbiter would keep. So at most two stalled slots
// run between sleeps; the second makes up a wake-up that the OS's timer
// slack delayed, at periods near that slack.
func (c *SlotClock) Advance(stalled bool) {
	c.next = c.next.Add(c.period)
	if stalled && !c.slept {
		if now := time.Now(); c.next.Before(now) {
			c.next = now.Add(c.period)
		}
	}
}

// sleep waits d and reports false if stop closed first. Waits under a
// millisecond — the ones the netpoller would round up — go to shortSleep
// and see stop only after it returns; longer ones use a timer.
func sleep(d time.Duration, stop <-chan struct{}) bool {
	if d < time.Millisecond {
		shortSleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
