package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a two-core microVM on a shared host, and what its
// memory system delivers swings by up to 2x over minutes with nothing changed
// inside the guest: every workload slows at once, process CPU time per
// transaction rises in step (the guest is not told about the contention, so
// it is not steal time), and a pure ALU loop barely notices. A run therefore
// measures the box alongside the program: speedProbe times a fixed walk of
// random reads over a table too large for the core's own caches, on its own
// thread's CPU clock, every speedEvery during the window. The ratio to nominalAccessNs is the box's slowdown, and the timed
// end-to-end metrics are reported divided by it (see endToEndMetrics): on a
// quiet box the ratio is 1 and nothing changes, in a slow phase the numbers
// stay where they were. Through a slow phase that took raw throughput and CPU
// cost to interquartile ranges of 25-36% of the median, dividing by such a
// probe kept them within 6-10% on three workloads and 15% on the fourth
// (README.md, "The box, and what is done about it").
const (
	speedTableBytes = 64 << 20
	speedAccesses   = 400_000 // timed reads per sample, about 6 ms
	speedWarmReads  = 100_000 // untimed reads before them: the thread wakes from a sleep with cold caches and TLB
	speedEvery      = 250 * time.Millisecond
	// nominalAccessNs is one read on the quiet reference box. It only keeps
	// the normalised metrics in their natural units; on another box they are
	// all off by one constant factor, which no comparison sees.
	nominalAccessNs = 17.0
)

type speedProbe struct {
	mem   []byte // anonymous mapping, outside the Go heap so the collector's pacing is untouched
	table []uint64
	x     uint64
}

func newSpeedProbe() (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, speedTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed probe: mmap: %w", err)
	}
	p := &speedProbe{mem: mem, table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), speedTableBytes/8), x: 88172645463325252}
	for i := range p.table {
		p.table[i] = uint64(i)
	}
	return p, nil
}

func (p *speedProbe) close() error { return syscall.Munmap(p.mem) }

// threadCPU is the calling thread's CPU time in ns.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

var speedSink uint64 // keeps the reads alive

// sample returns the slowdown over one walk: CPU ns per read over
// nominalAccessNs. The calling goroutine must be locked to its thread.
func (p *speedProbe) sample() float64 {
	p.walk(speedWarmReads)
	t0 := threadCPU()
	p.walk(speedAccesses)
	return float64(threadCPU()-t0) / speedAccesses / nominalAccessNs
}

func (p *speedProbe) walk(reads int) {
	x, n := p.x, uint64(len(p.table))
	var sum uint64
	for i := 0; i < reads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += p.table[x%n]
	}
	p.x = x
	speedSink += sum
}

// speedSample is one sample and when it was taken (ns since the run's base).
type speedSample struct {
	at       int64
	slowdown float64
}

// watch samples every speedEvery on a thread of its own until stop is
// closed, then delivers the samples.
func (p *speedProbe) watch(now func() int64, stop <-chan struct{}) <-chan []speedSample {
	done := make(chan []speedSample, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		var samples []speedSample
		for {
			select {
			case <-stop:
				done <- samples
				return
			case <-tick.C:
				samples = append(samples, speedSample{at: now(), slowdown: p.sample()})
			}
		}
	}()
	return done
}

// sliceSlowdowns averages the samples per window slice; a slice the sampler
// missed takes the window's mean.
func sliceSlowdowns(samples []speedSample, sliceOf func(int64) int) (perSlice [windowSlices]float64, window float64) {
	var n [windowSlices]int
	total := 0
	for _, s := range samples {
		if i := sliceOf(s.at); i >= 0 {
			perSlice[i] += s.slowdown
			n[i]++
			window += s.slowdown
			total++
		}
	}
	window = ratio(window, float64(total))
	if window == 0 {
		window = 1
	}
	for i := range perSlice {
		perSlice[i] = ratio(perSlice[i], float64(n[i]))
		if n[i] == 0 {
			perSlice[i] = window
		}
	}
	return perSlice, window
}
