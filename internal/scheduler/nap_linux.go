package scheduler

import (
	"syscall"
	"time"
)

// nap blocks the calling thread for d in the kernel. A signal interrupts the
// sleep; it resumes for the remaining time, so a nap never ends early.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
