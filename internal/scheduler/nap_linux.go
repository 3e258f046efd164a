package scheduler

import (
	"syscall"
	"time"
)

// nap blocks the calling thread for d in the kernel.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
