package scheduler

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
)

const ms = time.Millisecond

func TestHybridTriggerFire(t *testing.T) {
	trig := HybridTrigger{Level: 16, Every: 30 * ms}
	for _, c := range []struct {
		name string
		load Load
		why  string
		wait time.Duration
	}{
		{"empty queue never fires", Load{Queued: 0, Idle: time.Hour}, "", 0},
		{"level", Load{Queued: 16, Answered: 100, Idle: 0, RoundCost: time.Hour}, metrics.FiredLevel, 0},
		{"every", Load{Queued: 3, Answered: 8, Idle: 30 * ms, RoundCost: ms}, metrics.FiredEvery, 0},
		{"someone still out: wait for every", Load{Queued: 7, Answered: 8, Idle: 5 * ms, RoundCost: ms}, "", 25 * ms},
		{"everyone back", Load{Queued: 8, Answered: 8, Idle: 10 * ms, RoundCost: ms}, metrics.FiredReturned, 0},
		{"everyone back, loop not yet idle for a third of every", Load{Queued: 8, Answered: 8, Idle: 2 * ms, RoundCost: ms}, "", 8 * ms},
		{"everyone back, loop not yet idle for a round's cost", Load{Queued: 8, Answered: 8, Idle: 11 * ms, RoundCost: 13 * ms}, "", 2 * ms},
		{"lone request on an idle loop", Load{Queued: 1, Idle: time.Second, RoundCost: ms}, metrics.FiredReturned, 0},
		{"round cost unknown", Load{Queued: 1, Idle: 10 * ms}, metrics.FiredReturned, 0},
		{"round dearer than every: as before", Load{Queued: 8, Answered: 8, Idle: 29 * ms, RoundCost: 35 * ms}, "", ms},
		{"round dearer than every: every", Load{Queued: 8, Answered: 8, Idle: 30 * ms, RoundCost: 35 * ms}, metrics.FiredEvery, 0},
	} {
		if why, wait := trig.Fire(c.load); why != c.why || wait != c.wait {
			t.Errorf("%s: Fire(%+v) = %q, %s; want %q, %s", c.name, c.load, why, wait, c.why, c.wait)
		}
	}
}

// TestTriggersContainTheOldRule: for every load, a trigger that fired under
// the two-argument rule Fire(queueLen, sinceLast) still fires — no request is
// scheduled later than before — and the strict triggers fire exactly then.
// When a trigger does not fire, the wait it names is the exact idle time at
// which it would.
func TestTriggersContainTheOldRule(t *testing.T) {
	const level, every = 4, 10 * ms
	hybrid := HybridTrigger{Level: level, Every: every}
	oldHybrid := func(q int, idle time.Duration) bool { return q >= level || (q > 0 && idle >= every) }
	oldTime := func(q int, idle time.Duration) bool { return q > 0 && idle >= every }
	oldFill := func(q int, _ time.Duration) bool { return q >= level }
	durations := []time.Duration{0, 1, ms, every - 1, every, every + 1, time.Second}
	for q := 0; q <= level+1; q++ {
		for answered := 0; answered <= level+1; answered++ {
			for _, idle := range durations {
				for _, cost := range durations {
					l := Load{Queued: q, Answered: answered, Idle: idle, RoundCost: cost}
					why, wait := hybrid.Fire(l)
					if oldHybrid(q, idle) && why == "" {
						t.Errorf("hybrid: old rule fires at %+v, new one does not", l)
					}
					if why == metrics.FiredReturned && (q < answered || idle < cost || idle < every/3 || q == 0) {
						t.Errorf("hybrid: fired %q at %+v", why, l)
					}
					if why == "" && wait > 0 {
						l.Idle += wait
						if w, _ := hybrid.Fire(l); w == "" {
							t.Errorf("hybrid: still quiet at %+v, after the wait it named", l)
						}
						l.Idle--
						if w, _ := hybrid.Fire(l); w != "" {
							t.Errorf("hybrid: fires %q at %+v, before the wait it named", w, l)
						}
					}
					l = Load{Queued: q, Answered: answered, Idle: idle, RoundCost: cost}
					if w, _ := (TimeTrigger{Every: every}).Fire(l); (w != "") != oldTime(q, idle) {
						t.Errorf("time: Fire(%+v) = %q", l, w)
					}
					if w, _ := (FillTrigger{Level: level}).Fire(l); (w != "") != oldFill(q, idle) {
						t.Errorf("fill: Fire(%+v) = %q", l, w)
					}
				}
			}
		}
	}
}

// clocked records when each qualification started and optionally makes it
// slow. It hides the incremental interface, so every round calls Qualify.
type clocked struct {
	protocol.Protocol
	cost time.Duration
	mu   sync.Mutex
	at   []time.Time
}

func (c *clocked) Qualify(pending, history []request.Request) ([]request.Request, error) {
	c.mu.Lock()
	c.at = append(c.at, time.Now())
	c.mu.Unlock()
	time.Sleep(c.cost)
	return c.Protocol.Qualify(pending, history)
}

func (c *clocked) times() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Time(nil), c.at...)
}

func startLoop(t *testing.T, p protocol.Protocol, trig Trigger) *Middleware {
	t.Helper()
	e, err := NewEngine(Config{Protocol: p, Server: storage.NewServer(storage.Config{Rows: 64})})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMiddleware(e, trig, metrics.NewCollector())
	m.Start()
	return m
}

// closedLoop runs one session per element of think, numbered from first:
// client i submits a one-read transaction, waits for the reply, sleeps
// think[i], and repeats until it has sent n requests or stop is set. It
// returns each client's request latencies.
func closedLoop(t *testing.T, m *Middleware, first int, think []time.Duration, n int, stop *atomic.Bool) [][]time.Duration {
	t.Helper()
	lat := make([][]time.Duration, len(think))
	var wg sync.WaitGroup
	for c := range think {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n && !stop.Load(); i++ {
				start := time.Now()
				res := m.Submit(request.Request{TA: int64(first+c+1)<<32 | int64(i), Op: request.Read, Object: int64(first + c)})
				if res.Err != nil {
					t.Errorf("client %d request %d: %v", first+c, i, res.Err)
					return
				}
				lat[c] = append(lat[c], time.Since(start))
				time.Sleep(think[c])
			}
		}(c)
	}
	wg.Wait()
	return lat
}

func firedCounts(m *Middleware) map[string]int { return m.Collector().Summarise().Fired }

// The loop tests use a long Every so that "well before Every" survives a slow
// box and the race detector.
const every = 20 * ms

func TestLoopClosedLoopClientsWaitForTheirRoundNotTheTimer(t *testing.T) {
	m := startLoop(t, &protocol.FCFS{}, HybridTrigger{Level: 16, Every: every})
	lat := closedLoop(t, m, 0, make([]time.Duration, 8), 100, new(atomic.Bool))
	m.Stop()
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) != 800 {
		t.Fatalf("%d of 800 requests answered", len(all))
	}
	if p50 := all[len(all)/2]; p50 >= every/2 {
		t.Errorf("median request latency %s, want < %s: requests wait for the timer", p50, every/2)
	}
	sum := m.Collector().Summarise()
	if sum.MeanPending < 7 {
		t.Errorf("mean round size %.2f, want >= 7: rounds fragment (%v)", sum.MeanPending, sum.Fired)
	}
	if sum.Fired[metrics.FiredReturned] == 0 {
		t.Errorf("no round fired on %q: %v", metrics.FiredReturned, sum.Fired)
	}
}

func TestLoopLoneRequestOnIdleMiddleware(t *testing.T) {
	m := startLoop(t, &protocol.FCFS{}, HybridTrigger{Level: 16, Every: every})
	defer m.Stop()
	for i := 0; i < 3; i++ {
		time.Sleep(every / 2)
		start := time.Now()
		if res := m.Submit(request.Request{TA: int64(i + 1), Op: request.Read, Object: 1}); res.Err != nil {
			t.Fatal(res.Err)
		}
		if d := time.Since(start); d >= every/4 {
			t.Errorf("request %d answered after %s, want < %s", i, d, every/4)
		}
	}
}

// One of eight clients thinks for 2×Every between requests: the count of
// clients that can still return is then too high whenever it is away, which
// costs the other seven a wait up to Every — the old rule's wait — and never
// more.
func TestLoopThinkingClientDelaysOthersToEveryAtMost(t *testing.T) {
	m := startLoop(t, &protocol.FCFS{}, HybridTrigger{Level: 16, Every: every})
	var stop atomic.Bool
	var thinker [][]time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		thinker = closedLoop(t, m, 0, []time.Duration{2 * every}, 5, new(atomic.Bool))
		stop.Store(true)
	}()
	others := closedLoop(t, m, 1, make([]time.Duration, 7), math.MaxInt, &stop)
	<-done
	m.Stop()
	if len(thinker[0]) != 5 {
		t.Fatalf("thinking client completed %d of 5", len(thinker[0]))
	}
	for c, l := range others {
		if len(l) == 0 {
			t.Errorf("client %d completed nothing", c)
		}
		for _, d := range l {
			if d >= 2*every {
				t.Errorf("client %d waited %s, want at most Every (%s) plus a round", c, d, every)
			}
		}
	}
	fired := firedCounts(m)
	if fired[metrics.FiredEvery] == 0 || fired[metrics.FiredReturned] == 0 {
		t.Errorf("want both %q and %q rounds, got %v", metrics.FiredEvery, metrics.FiredReturned, fired)
	}
}

// A round that costs more than Every leaves no room for an early fire: once
// the loop has measured a round, the trigger fires as the old rule did.
func TestLoopRoundDearerThanEveryFiresAsBefore(t *testing.T) {
	p := &clocked{Protocol: &protocol.FCFS{}, cost: every + every/4}
	m := startLoop(t, p, HybridTrigger{Level: 16, Every: every})
	closedLoop(t, m, 0, make([]time.Duration, 8), 6, new(atomic.Bool))
	m.Stop()
	rounds := m.Collector().Rounds()
	if len(rounds) < 3 {
		t.Fatalf("%d rounds", len(rounds))
	}
	for i, r := range rounds[1:] { // the first round's cost was unknown
		if r.Fired != metrics.FiredEvery && r.Fired != metrics.FiredLevel && r.Fired != metrics.FiredDrain {
			t.Errorf("round %d fired on %q", i+1, r.Fired)
		}
	}
	at := p.times()
	for i := 2; i < len(at); i++ {
		// Idle time runs from the end of a round, which cost more than Every.
		if gap := at[i].Sub(at[i-1]); gap < 2*every {
			t.Errorf("rounds %d and %d started %s apart, want >= %s", i-1, i, gap, 2*every)
		}
	}
}

// A deadline below a millisecond is kept by the kernel's sleep; the runtime's
// timer alone serves it a millisecond late once the process is idle, and eight
// closed-loop clients of the default trigger would wait 1.2ms, not 0.5.
func TestLoopKeepsSubMillisecondDeadlines(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("nap is the runtime's sleep here")
	}
	m := startLoop(t, &protocol.FCFS{}, HybridTrigger{Level: 16, Every: ms})
	lat := closedLoop(t, m, 0, make([]time.Duration, 8), 200, new(atomic.Bool))
	m.Stop()
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if p50 := all[len(all)/2]; p50 >= 4*ms/5 {
		t.Errorf("median request latency %s, want about %s", p50, ms/3+150*time.Microsecond)
	}
}

func TestLoopIdleMiddlewareDoesNotWakeUp(t *testing.T) {
	m := startLoop(t, &protocol.FCFS{}, HybridTrigger{Level: 16, Every: ms})
	time.Sleep(50 * ms)
	m.Stop()
	if m.wakeups != 0 {
		t.Errorf("idle loop iterated %d times in 50ms; woken by %s", m.wakeups, wakeCauses(m))
	}
	// And it goes back to sleep once its work is done.
	m = startLoop(t, &protocol.FCFS{}, HybridTrigger{Level: 16, Every: ms})
	if res := m.Submit(request.Request{TA: 1, Op: request.Read, Object: 1}); res.Err != nil {
		t.Fatal(res.Err)
	}
	time.Sleep(50 * ms)
	m.Stop()
	// Arrival, the nap's wake-up, the poke after its round, the delivery. A
	// fifth used to come under load from a timer armed beside the nap (the
	// second of the two woke the loop for nothing) or from a nap a signal
	// cut short (its wake-up found the deadline not yet due).
	if m.wakeups > 4 {
		t.Errorf("loop iterated %d times for one request; woken by %s", m.wakeups, wakeCauses(m))
	}
}

// TestLoopNapsOnOneGoroutine: every short wait is served by the napper the
// loop starts, not by a goroutine per nap, so the goroutine count stays flat
// over many nap-paced rounds, and Stop leaves nothing running.
func TestLoopNapsOnOneGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := startLoop(t, &protocol.FCFS{}, HybridTrigger{Level: 16, Every: ms})
	submit := func(ta int64) {
		if res := m.Submit(request.Request{TA: ta, Op: request.Read, Object: 1}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// After one reply the loop, its napper and the executor are running;
	// the sampler below adds one.
	submit(1)
	steady := runtime.NumGoroutine() + 1
	var peak atomic.Int64
	done, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-done:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()
	for ta := int64(2); ta <= 300; ta++ {
		submit(ta) // a lone request waits a third of Every: a nap
	}
	close(done)
	<-sampled
	m.Stop()
	naps := 0
	for _, c := range m.wakes {
		if c&wokeNap != 0 {
			naps++
		}
	}
	if naps == 0 {
		t.Fatalf("no nap among the first wake-ups (test premise broken); woken by %s", wakeCauses(m))
	}
	if p := peak.Load(); p > int64(steady) {
		t.Errorf("%d goroutines while napping, %d steady", p, steady)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(ms)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after Stop, %d before the middleware started", n, baseline)
	}
}

// wakeCauses lists why the loop woke, in order (the first len(m.wakes)). A
// wake-up without a cause took a poke whose cause an earlier one had read.
func wakeCauses(m *Middleware) string {
	var out string
	for i := 0; i < min(m.wakeups, len(m.wakes)); i++ {
		out += fmt.Sprintf("\n\t%d:", i+1)
		for b, name := range []string{"arrival", "nap", "round", "delivery", "timer"} {
			if m.wakes[i]&(1<<b) != 0 {
				out += " " + name
			}
		}
	}
	return out
}

// Every above the progress bound used to be capped by it: the loop ran a
// round whenever anything was queued and 2ms had passed.
func TestLoopTimeTriggerHonoursLongEvery(t *testing.T) {
	p := &clocked{Protocol: &protocol.FCFS{}}
	m := startLoop(t, p, TimeTrigger{Every: every})
	closedLoop(t, m, 0, make([]time.Duration, 1), 5, new(atomic.Bool))
	m.Stop()
	at := p.times()
	if len(at) < 5 {
		t.Fatalf("%d rounds for 5 requests", len(at))
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i].Sub(at[i-1]); gap < every {
			t.Errorf("rounds %d and %d started %s apart, want >= %s", i-1, i, gap, every)
		}
	}
	if fired := firedCounts(m); fired[metrics.FiredProgress] != 0 {
		t.Errorf("progress rounds with nothing pending: %v", fired)
	}
}

// A blocked pending row is still re-examined within the progress bound,
// whatever Every says.
func TestLoopBlockedPendingRowKeepsProgressBound(t *testing.T) {
	p := &clocked{Protocol: protocol.SS2PLDatalog()}
	m := startLoop(t, p, TimeTrigger{Every: 10 * every})
	holder := request.NewBuilder(1, nil).Write(5).Commit()
	if res := m.Submit(holder.Requests[0]); res.Err != nil {
		t.Fatal(res.Err)
	}
	blocked := make(chan Result, 1)
	go func() { blocked <- m.Submit(request.Request{TA: 2, Op: request.Write, Object: 5}) }()
	// Wait for the round that admits the blocked write, then watch the loop.
	deadline := time.Now().Add(5 * time.Second)
	for len(p.times()) < 2 && time.Now().Before(deadline) {
		time.Sleep(ms)
	}
	const watch = 50 * ms
	time.Sleep(watch)
	at := p.times()
	if res := m.Submit(holder.Requests[1]); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := <-blocked; res.Err != nil {
		t.Fatal(res.Err)
	}
	m.Stop()
	// 25 progress rounds fit in the window; a slow box may fit fewer, the
	// capped-at-Every loop fits none.
	if got := len(at) - 2; got < int(watch/progressBound)/4 {
		t.Errorf("%d rounds re-examined the blocked row in %s, want about %d", got, watch, watch/progressBound)
	}
	if fired := firedCounts(m); fired[metrics.FiredProgress] == 0 {
		t.Errorf("no progress rounds: %v", fired)
	}
}
