package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/storage"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line: the driver's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Also holds the end-to-end metrics BENCHMARK.json cannot carry (see
	// alsoReported); an untraced run prints them on the line before the result.
	Also map[string]metric `json:"-"`
}

// warmupTimeout bounds the wait for the first wave of transactions; a run
// that cannot commit one transaction per client in this time is wedged.
const warmupTimeout = 60 * time.Second

type runConfig struct {
	spec   workloadSpec
	seed   int64
	window time.Duration
	traced bool
	tmp    string // durable state is created under here
	spans  string // traced runs write their spans here as JSON lines ("" = keep in memory only)
}

// runWorkload runs one workload once: set-up (several times on an untraced
// run), warm-up, the measured window, drain, audit. An untraced run reports
// the end-to-end metrics, a traced run the per-layer metrics. Human-readable
// notes go to log.
func runWorkload(cfg runConfig, log io.Writer) (result, error) {
	base := time.Now()
	sessions, err := cfg.spec.sessions(cfg.seed)
	if err != nil {
		return result{}, err
	}
	clients := make([]*clientState, len(sessions))
	for id, s := range sessions {
		clients[id] = &clientState{id: id, sess: s}
	}
	speed, err := newSpeedProbe()
	if err != nil {
		return result{}, err
	}
	defer speed.close()
	l, setups, err := setUp(cfg, base, clients)
	if err != nil {
		return result{}, err
	}
	defer l.st.close()
	l.start()
	ph, err := l.measure(cfg, speed)
	goroutines := runtime.NumGoroutine()
	l.finish()
	if err != nil {
		return result{}, err
	}

	au, err := audit(cfg, l, log)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: au.correct, Metrics: map[string]metric{}, Also: map[string]metric{}}

	tot := l.totals()
	res.Attempted = tot.commits + tot.fails
	res.Failed = tot.fails
	if len(tot.errs) > 0 {
		fmt.Fprintf(log, "%d clients saw a failure, first: %v\n", len(tot.errs), tot.errs[0])
	}
	if tot.commits == 0 {
		return res, errors.New("no transaction committed inside the window")
	}
	if !cfg.traced {
		endToEndMetrics(&res, cfg, ph, tot, setups, log)
		return res, errors.Join(finishMetrics(res.Metrics, endToEnd), finishMetrics(res.Also, alsoReported))
	}
	in := layerInputs{cfg: cfg, l: l, ph: ph, tot: tot, au: au, goroutines: goroutines}
	if err := in.compute(&res); err != nil {
		return res, err
	}
	if cfg.spans != "" {
		if err := l.tr.writeSpans(cfg.spans, clients); err != nil {
			return res, err
		}
	}
	return res, finishMetrics(res.Metrics, perLayer)
}

// setUp constructs and starts everything, then sends client 0's first
// transaction through the idle instance: protocol compile, storage open and
// journal create, listen and dial, the first cold rounds. An untraced run
// times this setupReps times and setup_s is the median; the last instance is
// returned to take the load.
func setUp(cfg runConfig, base time.Time, clients []*clientState) (*load, []float64, error) {
	reps := setupReps
	if cfg.traced {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var setups []float64
	for rep := 1; ; rep++ {
		var tr *tracer
		if cfg.traced {
			tr = newTracer(base, cfg.window)
		}
		t0 := time.Now()
		st, err := buildStack(cfg.spec, tr, cfg.tmp)
		if err != nil {
			return nil, nil, err
		}
		l := &load{st: st, tr: tr, base: base, clients: clients}
		first := clients[0]
		first.writes = first.writes[:0]
		l.runTxn(first, first.sess.NextTransaction())
		setups = append(setups, time.Since(t0).Seconds())
		if first.firstErr != nil {
			st.close()
			return nil, nil, fmt.Errorf("first transaction: %w", first.firstErr)
		}
		if rep >= reps {
			return l, setups, nil
		}
		if err := st.close(); err != nil {
			return nil, nil, err
		}
	}
}

// phases is what the measured part of a run yields besides the clients' own
// records: the probes at the slice edges, and on a traced run the request
// rates of the overhead phase.
type phases struct {
	probes          [windowSlices + 1]probe
	rateOff, rateOn float64 // requests per ns with the recorders off and on
	// The box's slowdown (speedProbe) per window slice and over the window.
	slow       [windowSlices]float64
	slowWindow float64
}

// measure takes the running load through warm-up, the overhead phase of a
// traced run, and the measured window.
func (l *load) measure(cfg runConfig, speed *speedProbe) (phases, error) {
	// Warm-up lasts a tenth of the window and at least until the clients
	// have committed one transaction each on average: all of them start their
	// first transaction at the same instant, and that wave must have passed.
	warm := max(cfg.window/10, 200*time.Millisecond)
	time.Sleep(warm)
	for waited := time.Duration(0); l.committed.Load() < int64(len(l.clients)); waited += 10 * time.Millisecond {
		if waited > warmupTimeout {
			return phases{}, fmt.Errorf("%d commits after %s of warm-up", l.committed.Load(), warm+waited)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A traced run first estimates what tracing costs: half a window of
	// short slices with the recorders alternately off and on, compared by
	// request rate. Interleaving cancels a throughput that drifts with
	// uptime, and requests respond within one round trip where commits lag
	// by a whole transaction.
	var ph phases
	t := l.now()
	if cfg.traced {
		var requests, ns [2]int64 // [0] recorders off, [1] on
		for i := 0; i < overheadSlices; i++ {
			on := i % 2
			l.tr.enabled.Store(on == 1)
			r0, t0 := l.requests.Load(), l.now()
			t += int64(cfg.window) / 2 / overheadSlices
			l.sleepUntil(t)
			requests[on] += l.requests.Load() - r0
			ns[on] += l.now() - t0
		}
		ph.rateOff, ph.rateOn = ratio(float64(requests[0]), float64(ns[0])), ratio(float64(requests[1]), float64(ns[1]))
		t += int64(warm) / 4 // transactions begun untraced finish before the window opens
	}

	// The window: a fixed wall time from here, probed at every slice edge.
	l.winStart.Store(t)
	l.winEnd.Store(t + int64(cfg.window))
	stop := make(chan struct{})
	samples := speed.watch(l.now, stop)
	for i := range ph.probes {
		l.sleepUntil(t + int64(i)*int64(cfg.window)/windowSlices)
		ph.probes[i] = l.takeProbe(i == 0 || i == windowSlices)
	}
	close(stop)
	ph.slow, ph.slowWindow = sliceSlowdowns(<-samples, l.sliceOf)
	if cfg.traced {
		l.tr.enabled.Store(false)
	}
	return ph, nil
}

// auditResult is the outcome of the correctness checks that follow a run.
type auditResult struct {
	correct     bool
	recoverTime time.Duration // durable workload: storage.Recover on the closed directory
	replayed    int64         // journal records that recovery replayed
}

// audit checks the finished run's outputs: storage rows equal the
// acknowledged committed writes; on the durable workload the same holds for
// the server recovered from the closed directory; on a traced run the kept
// execution log is conflict serializable.
func audit(cfg runConfig, l *load, log io.Writer) (auditResult, error) {
	au := auditResult{correct: true}
	fail := func(format string, args ...any) {
		au.correct = false
		fmt.Fprintf(log, "AUDIT FAILED: "+format+"\n", args...)
	}
	if bad := auditRows(l.st.srv, cfg.spec.rows, l.clients); bad > 0 {
		fail("%d storage rows differ from the acknowledged committed writes", bad)
	}
	if cfg.spec.durable {
		err := l.st.srv.Close()
		l.st.srv = nil
		if err != nil {
			return au, fmt.Errorf("storage close: %w", err)
		}
		t0 := time.Now()
		rec, err := storage.Recover(l.st.dir)
		au.recoverTime = time.Since(t0)
		if err != nil {
			return au, err
		}
		au.replayed = rec.Durability().ReplayedRecords.Load()
		if bad := auditRows(rec, cfg.spec.rows, l.clients); bad > 0 {
			fail("%d recovered rows differ from the acknowledged committed writes", bad)
		}
		if err := rec.Close(); err != nil {
			return au, fmt.Errorf("recovered storage close: %w", err)
		}
	}
	if cfg.traced {
		if err := checkSerializable(l.st.executedLog()); err != nil {
			fail("%v", err)
		}
	}
	return au, nil
}

// totals is the clients' window records merged: latency samples per slice,
// sorted, and the outcome counts.
type totals struct {
	reqLat, txnLat          [windowSlices][]int64
	commits, requests       int64
	attempts, aborts, fails int64
	starved                 int64
	errBusy, errOther       int64
	errs                    []error
}

func (l *load) totals() totals {
	var t totals
	for _, c := range l.clients {
		for i := range t.txnLat {
			t.reqLat[i] = append(t.reqLat[i], c.reqLat[i]...)
			t.txnLat[i] = append(t.txnLat[i], c.txnLat[i]...)
		}
		t.attempts += c.attempts
		t.aborts += c.aborts
		t.fails += c.fails
		t.starved += c.starved
		t.errBusy += c.errBusy
		t.errOther += c.errOther
		if c.firstErr != nil {
			t.errs = append(t.errs, c.firstErr)
		}
	}
	for i := range t.txnLat {
		slices.Sort(t.reqLat[i])
		slices.Sort(t.txnLat[i])
		t.commits += int64(len(t.txnLat[i]))
		t.requests += int64(len(t.reqLat[i]))
	}
	return t
}

// windowTail returns the whole window's tail latency in ns — the highest
// quantile up to p99 with ten samples beyond it, exact over all samples — and
// which quantile that was.
func windowTail(perSlice [windowSlices][]int64) (ns, q float64) {
	all := slices.Concat(perSlice[:]...)
	slices.Sort(all)
	q = tailQuantile(len(all))
	return float64(exactQuantile(all, q)), q
}

// clientShares are the outcome ratios of the clients' window records, the
// same on both kinds of run.
func (t totals) abortShare() float64 { return ratio(float64(t.aborts), float64(t.attempts)) }
func (t totals) failShare() float64  { return ratio(float64(t.fails), float64(t.commits+t.fails)) }
func (t totals) starvedShare() float64 {
	return ratio(float64(t.starved), float64(t.commits+t.fails))
}

// endToEndMetrics fills in what an untraced run reports. Every rate and
// median latency is taken per window slice and the median over the slices
// is reported; the tails and the shares (res.Also) are over the whole window.
//
// What is CPU work — cpu_ms_per_txn everywhere, throughput and latency on
// the workloads that saturate the scheduler — is divided by the box's
// slowdown while it was measured (speed.go). setup_s is divided by the
// window's: the set-ups end seconds before the window opens and the box's
// phases last minutes. A timer-bound workload's throughput and latency are
// mostly the trigger's millisecond and stay as the clock read them.
func endToEndMetrics(res *result, cfg runConfig, ph phases, tot totals, setups []float64, log io.Writer) {
	sliceSeconds := cfg.window.Seconds() / windowSlices
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	perSlice := map[string][]float64{}
	add := func(name string, v float64) { perSlice[name] = append(perSlice[name], v) }
	for i := range tot.txnLat {
		a, b := ph.probes[i], ph.probes[i+1]
		committed := float64(b.committed - a.committed)
		wall := ph.slow[i]
		if cfg.spec.timerBound {
			wall = 1
		}
		add("commit_txn_per_s", float64(len(tot.txnLat[i]))/sliceSeconds*wall)
		add("txn_p50_us", us(exactQuantile(tot.txnLat[i], 0.5))/wall)
		add("req_p50_us", us(exactQuantile(tot.reqLat[i], 0.5))/wall)
		add("cpu_ms_per_txn", ratio(float64((b.cpu-a.cpu).Microseconds())/1e3, committed)/ph.slow[i])
		add("allocs_per_txn", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), committed))
	}
	for name, vs := range perSlice {
		res.Metrics[name] = metric{Value: median(vs)}
	}
	res.Metrics["setup_s"] = metric{Value: median(setups) / ph.slowWindow}
	res.Also["peak_rss_mb"] = metric{Value: peakRSSMiB() - speedTableBytes/(1<<20)} // the probe's table is resident and not the program's
	txnTail, txnQ := windowTail(tot.txnLat)
	reqTail, reqQ := windowTail(tot.reqLat)
	fmt.Fprintf(log, "samples: %d transactions (txn_p99_us is p%.2f), %d requests (req_p99_us is p%.2f), %d set-ups, %d window slices\n",
		tot.commits, txnQ*100, tot.requests, reqQ*100, len(setups), windowSlices)
	wall := ph.slowWindow
	if cfg.spec.timerBound {
		wall = 1
	}
	res.Also["txn_p99_us"] = metric{Value: txnTail / 1e3 / wall}
	res.Also["req_p99_us"] = metric{Value: reqTail / 1e3 / wall}
	res.Also["box_slowdown"] = metric{Value: ph.slowWindow}
	res.Also["abort_share"] = metric{Value: tot.abortShare()}
	res.Also["fail_share"] = metric{Value: tot.failShare()}
	res.Also["starved_share"] = metric{Value: tot.starvedShare()}
}

// finishMetrics attaches the units and checks that exactly the defined
// metrics were produced and every value is finite.
func finishMetrics(got map[string]metric, defs []metricDef) error {
	if len(got) != len(defs) {
		return fmt.Errorf("produced %d metrics, %d defined", len(got), len(defs))
	}
	for _, d := range defs {
		m, found := got[d.name]
		if !found {
			return fmt.Errorf("metric %s was not produced", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", d.name)
		}
		m.Unit = d.unit
		got[d.name] = m
	}
	return nil
}

// auditRows checks that storage holds exactly the acknowledged committed
// writes (every write is an increment): nothing admitted then lost, nothing
// executed twice, no victim's write left behind. It returns the number of
// differing rows.
func auditRows(srv *storage.Server, rows int64, clients []*clientState) int {
	want := make([]int64, rows)
	for _, c := range clients {
		for _, row := range c.writes {
			want[row]++
		}
	}
	bad := 0
	for row, w := range want {
		if srv.Get(int64(row)) != w {
			bad++
		}
	}
	return bad
}
