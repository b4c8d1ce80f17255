package runtime

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// SlotClock is the repository's one slot pacer: the live arbiter, lcffab's
// fabric loop and lcfload's generator all run their slots on it. It is a
// deadline, not a time.Ticker: next is when the next slot is due, and each
// slot moves it on by one period from where it was due, not from when it
// ran, so a wake-up that comes late is made up by the next wait instead of
// drifting the rate.
//
// How it waits depends on how long the wait is:
//   - A slot already due runs at once.
//   - A wait shorter than the OS's timer slack spins on the clock until
//     its deadline, because a sleep that short comes back a whole slack
//     late (see timerSlack). The one exception is the wait after a
//     stalled slot, which sleeps: what a stalled slot waits for — a
//     consumer, an output pump — needs the processor a spinning arbiter
//     would keep.
//   - Longer waits sleep. Waits under a millisecond sleep in the OS
//     (shortSleep), not on a Go timer: when nothing else is runnable the
//     netpoller rounds such a wait up to a whole millisecond, which would
//     hold a 200 µs period to ~1 000 slots a second. Such a sleep runs
//     a timer slack late at most, which the next wait makes up.
//   - Waits of timerWait or more sleep on a Go timer, which can wake
//     hundreds of microseconds late. Such a sleep ends lead before the
//     deadline, lead being how late the timer has been waking (see
//     learn), though never under timerWait, and the wait spins the rest.
//
// A SlotClock belongs to the one goroutine that runs the slots: Wait
// before each slot, Advance (or AdvanceAt) after it. Its ClockStats may
// be read from any goroutine.
type SlotClock struct {
	period time.Duration
	next   time.Time
	// now is the clock's last reading: the one Wait let its slot run at,
	// or the one AdvanceAt handed in, which held marks as still current
	// for the next Wait.
	now  time.Time
	held bool
	// lead is how long before its deadline a timer sleep ends (see
	// learn).
	lead time.Duration
	// slept reports that the last wait slept before its slot ran;
	// stalled that the last slot moved nothing while frames were queued.
	slept, stalled bool

	src   timeSource
	stats *ClockStats
}

// ClockStats counts a SlotClock's sleeps. A rate of slots below one per
// period with Overshoot rising is the OS waking the clock late.
type ClockStats struct {
	Sleeps    metrics.Counter // waits that slept
	Overshoot metrics.Counter // nanoseconds those sleeps ran past their deadlines
}

// Register publishes s into r as <prefix>_slot_clock_sleeps_total and
// <prefix>_slot_clock_overshoot_seconds_total.
func (s *ClockStats) Register(r *obs.Registry, prefix string) {
	r.Counter(prefix+"_slot_clock_sleeps_total", "Waits of the slot clock that slept; waits shorter than the OS timer slack spin instead, except after a stalled slot.", s.Sleeps.Value)
	r.CounterVec(prefix+"_slot_clock_overshoot_seconds_total", "Time the slot clock's sleeps ran past their deadlines, summed.", func() []obs.Sample {
		return []obs.Sample{{Value: time.Duration(s.Overshoot.Value()).Seconds()}}
	})
}

// NewSlotClock returns a clock whose first slot is due one period from
// now. It counts into stats, or into counters of its own when stats is
// nil.
func NewSlotClock(period time.Duration, stats *ClockStats) *SlotClock {
	return newSlotClock(period, newWallClock(), stats)
}

func newSlotClock(period time.Duration, src timeSource, stats *ClockStats) *SlotClock {
	if stats == nil {
		stats = new(ClockStats)
	}
	return &SlotClock{period: period, next: src.now().Add(period), src: src, stats: stats}
}

// Wait blocks until the next slot is due and reports whether the slot
// should run: false once stop is closed. A slot already due runs now and
// takes now as its deadline, which drops the periods it missed — an
// overrun slot is followed back to back by the next one, never by a burst
// catching up. The arbiter never yields here: a slot that keeps frames
// moving keeps its processor, and a spin reads the clock and nothing
// else, since a yield hands the processor to the output pump it wakes.
// The time it lets the slot run at is Now.
func (c *SlotClock) Wait(stop <-chan struct{}) bool {
	now := c.reading()
	c.held = false
	switch d := c.next.Sub(now); {
	case d <= 0:
		c.next = now
		c.slept = false
	case d < timerSlack && !c.stalled:
		now = c.spin(now)
		c.slept = false
	default:
		c.stats.Sleeps.Inc()
		// The wait after a stalled slot sleeps to its deadline: it is
		// there to give the processor up, not to be punctual.
		sleep := d
		if d >= timerWait && !c.stalled {
			sleep = max(d-c.lead, timerWait)
		}
		if !c.src.sleep(sleep, stop) {
			return false
		}
		woke := c.src.now()
		if sleep >= timerWait {
			c.learn(woke.Sub(now) - sleep)
		}
		now = c.spin(woke)
		if late := now.Sub(c.next); late > 0 {
			c.stats.Overshoot.Add(int64(late))
		}
		c.slept = true
	}
	c.now = now
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// spin reads the clock from now until the deadline and returns the
// reading that reached it.
func (c *SlotClock) spin(now time.Time) time.Time {
	for now.Before(c.next) {
		now = c.src.now()
	}
	return now
}

// learn folds how late a timer sleep woke into lead, moving it halfway
// there: a timer that wakes steadily late is learnt in a few sleeps, and
// one late wake-up is forgotten as fast. lead stays within half a
// period, so at most half of a wait is spun.
func (c *SlotClock) learn(late time.Duration) {
	c.lead = min(max(c.lead+(late-c.lead)/2, 0), c.period/2)
}

// reading is the held reading if there is one, else a fresh one.
func (c *SlotClock) reading() time.Time {
	if c.held {
		return c.now
	}
	return c.src.now()
}

// Now returns the time the last Wait let its slot run at: the slot's
// start.
func (c *SlotClock) Now() time.Time { return c.now }

// Advance makes the next slot due one period after this one was. stalled
// is a slot that moved nothing while frames are queued (every request
// masked by a full output or a down link). When a stalled slot that did
// not sleep before it ran finds the next deadline already passed, the
// next slot is a whole period away instead of due at once, and the wait
// for it sleeps however short it is, because whatever a stalled slot
// waits for — a consumer, a pump — needs the processor an overdue or
// spinning arbiter would keep. So at most two stalled slots run between
// sleeps; the second makes up a wake-up that the OS's timer slack
// delayed, at periods near that slack.
func (c *SlotClock) Advance(stalled bool) {
	c.held = false
	c.advance(stalled)
}

// AdvanceAt is Advance for a loop that has just read the clock, at now
// (the end of its slot), and will not block before the next Wait: this
// Advance and that Wait take now as the current time instead of reading
// the clock again, so a slot that runs back to back with the next costs
// one clock read.
func (c *SlotClock) AdvanceAt(stalled bool, now time.Time) {
	c.now, c.held = now, true
	c.advance(stalled)
}

func (c *SlotClock) advance(stalled bool) {
	c.next = c.next.Add(c.period)
	c.stalled = stalled
	if stalled && !c.slept {
		if now := c.reading(); c.next.Before(now) {
			c.next = now.Add(c.period)
		}
	}
}

// ClockRate runs a bare SlotClock — nothing between its waits — for
// slots periods and returns the slots per second it held. The tests
// that hold a paced loop to a wall-clock rate report it beside a rate
// they found too low, measured in the same run: a host that cannot hold
// the period with empty slots says nothing about the loop under test.
func ClockRate(period time.Duration, slots int) float64 {
	c := NewSlotClock(period, nil)
	start := time.Now()
	for k := 0; k < slots; k++ {
		c.Wait(nil)
		c.Advance(false)
	}
	return float64(slots) / time.Since(start).Seconds()
}

// timerSlack is how late the OS wakes a thread from a timed sleep at the
// least: Linux's default timer_slack_ns, 50 µs. A wait shorter than that
// is spun, since sleeping it would cost the slack on top. On a 2-vCPU
// Linux VM at that default slack, nanosleep(100 ns) returned after
// 56 µs, and lcfd -slot 1us, whose waits after a slot that finished
// early are all under a microsecond, slept 2–77 k times in a 10–15 s
// closed-loop run, as often as its slots finished inside their period:
// up to 4.4 s of the run asleep (EXPERIMENTS.md E44).
const timerSlack = 50 * time.Microsecond

// timerWait is the shortest wait the wall clock hands to a Go timer;
// shorter ones sleep in the OS (shortSleep).
const timerWait = time.Millisecond

// timeSource is where a SlotClock reads and spends time: the wall clock
// in the daemons, a fake one in the tests of the pacing rules.
type timeSource interface {
	now() time.Time
	// sleep blocks for about d and reports false if stop closed first.
	sleep(d time.Duration, stop <-chan struct{}) bool
}

// wallClock is the real timeSource. It reads the monotonic clock alone:
// a reading is its epoch, a time.Now taken when it was made, plus
// time.Since(epoch), one read of the monotonic clock where time.Now also
// reads the wall clock. Its one timer is made on the first wait of a
// millisecond or more and reset for every later one.
type wallClock struct {
	epoch time.Time
	timer *time.Timer
}

func newWallClock() *wallClock { return &wallClock{epoch: time.Now()} }

func (w *wallClock) now() time.Time { return w.epoch.Add(time.Since(w.epoch)) }

// sleep waits d. Waits under a millisecond — the ones the netpoller
// would round up — go to shortSleep and see stop only after it returns;
// longer ones wait on the timer.
func (w *wallClock) sleep(d time.Duration, stop <-chan struct{}) bool {
	if d < timerWait {
		shortSleep(d)
		return true
	}
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	select {
	case <-w.timer.C:
		return true
	case <-stop:
		if !w.timer.Stop() {
			<-w.timer.C // fired meanwhile: empty C before the next Reset
		}
		return false
	}
}
