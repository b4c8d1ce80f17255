package runtime

import (
	"syscall"
	"time"
)

// shortSleep blocks the calling thread in nanosleep(2), which honours a
// sub-millisecond wait to within the kernel's timer slack where a Go timer
// parked in the netpoller would round it up to 1 ms. The slack makes it
// return at least about 56 µs late whatever it is asked for: on a 2-vCPU
// Linux VM with the default 50 µs timer_slack_ns, 100 ns took 56 µs,
// 40 µs took 98 µs and 200 µs took 263 µs. That is why SlotClock spins
// waits under timerSlack instead of sleeping them. A signal (the Go
// scheduler's preemption included) interrupts the call; it resumes with
// the time that was left.
func shortSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
