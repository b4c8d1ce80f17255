package runtime

import (
	"syscall"
	"time"
)

// shortSleep blocks the calling thread in nanosleep(2), which honours a
// sub-millisecond wait to within the kernel's timer slack (~50 µs for an
// ordinary thread) where a Go timer parked in the netpoller would round
// it up to 1 ms. A signal (the Go scheduler's preemption included)
// interrupts the call; it resumes with the time that was left.
func shortSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
