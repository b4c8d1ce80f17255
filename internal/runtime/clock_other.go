//go:build !linux

package runtime

import "time"

// shortSleep is time.Sleep where nanosleep(2) is not available through
// package syscall (darwin, windows): sub-millisecond periods are then
// only as precise as the Go timer.
func shortSleep(d time.Duration) { time.Sleep(d) }
