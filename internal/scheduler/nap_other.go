//go:build !linux

package scheduler

import "time"

// nap is a runtime sleep where the kernel's is not at hand.
func nap(d time.Duration) { time.Sleep(d) }
