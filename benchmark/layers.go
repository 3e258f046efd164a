package main

import (
	"slices"
	"sort"
)

// metricDef names one reported metric and its unit. Direction and bound live
// in BENCHMARK.json; main_test.go checks the two agree.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports: what a client of the middleware
// sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"commit_txn_per_s", "txn/s"},
	{"txn_p50_us", "us"},
	{"req_p50_us", "us"},
	{"cpu_ms_per_txn", "ms"},
	{"allocs_per_txn", "count"},
}

// alsoReported is the rest of the issue's end-to-end list, measured by every
// untraced run like the metrics above and compared by -compare, but printed
// on a line of their own ahead of the result: the driver's result line holds
// exactly BENCHMARK.json's end-to-end metrics, and those must never be zero
// (the shares are) and must repeat within a bound of at most 0.25 on every
// workload (the tails do not on bulk_datalog; see README.md).
var alsoReported = []metricDef{
	{"peak_rss_mb", "MiB"},
	{"txn_p99_us", "us"},
	{"req_p99_us", "us"},
	{"abort_share", "ratio"},
	{"fail_share", "ratio"},
	{"starved_share", "ratio"},
	{"box_slowdown", "ratio"},
}

// strategies are the evaluation paths the protocols report per round.
var strategies = []string{
	"cold", "monotone", "dred", "recompute",
	"sql-cold", "sql-warm", "sql-ivm", "sql-ivm-build", "sql-ivm-bulk",
}

// perLayer is what a traced run reports; the prefix is the layer (the repo's
// package, or client/proc/trace for the benchmark's own side).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"client.abort_share", "ratio"},
		{"client.fail_share", "ratio"},
		{"client.starved_share", "ratio"},
		{"client.txn_p99_us", "us"},
		{"client.req_p99_us", "us"},

		{"netproto.submit_us_mean", "us"},
		{"netproto.self_us_mean", "us"},
		{"netproto.err_busy", "count"},
		{"netproto.err_other", "count"},

		{"scheduler.rounds_per_s", "1/s"},
		{"scheduler.round_us_mean", "us"},
		{"scheduler.round_us_p99", "us"},
		{"scheduler.busy_share", "ratio"},
		{"scheduler.self_share", "ratio"},
		{"scheduler.pending_mean", "count"},
		{"scheduler.qualified_ratio", "ratio"},
		{"scheduler.queue_wait_us_mean", "us"},
		{"scheduler.rounds_waited_mean", "count"},
		{"scheduler.victims_per_ktxn", "count"},
		{"scheduler.cross_per_ktxn", "count"},
		{"scheduler.shard_imbalance", "ratio"},
		{"scheduler.rebalance_moves", "count"},

		{"protocol.qualify_calls", "count"},
		{"protocol.qualify_us_mean", "us"},
		{"protocol.qualify_us_p99", "us"},
		{"protocol.qualify_share", "ratio"},
		{"protocol.ns_per_pending_row", "ns"},
		{"protocol.history_rows_mean", "count"},
		{"protocol.delta_ratio", "ratio"},
		{"protocol.cold_replay_us", "us"},
	}
	for _, s := range strategies {
		defs = append(defs, metricDef{"protocol.strategy_share." + s, "ratio"})
	}
	return append(defs,
		metricDef{"storage.exec_us_mean", "us"},
		metricDef{"storage.exec_share", "ratio"},
		metricDef{"storage.journal_bytes_per_txn", "B"},
		metricDef{"storage.journal_records_per_txn", "count"},
		metricDef{"storage.syncs_per_ktxn", "count"},
		metricDef{"storage.checkpoints", "count"},
		metricDef{"storage.checkpoint_bytes_per_txn", "B"},
		metricDef{"storage.recover_ms", "ms"},
		metricDef{"storage.replayed_records", "count"},

		metricDef{"metrics.snapshot_us_start", "us"},
		metricDef{"metrics.snapshot_us_end", "us"},
		metricDef{"metrics.rounds_retained", "count"},

		metricDef{"proc.gc_cycles", "count"},
		metricDef{"proc.gc_pause_ms", "ms"},
		metricDef{"proc.heap_live_mb_end", "MiB"},
		metricDef{"proc.goroutines_end", "count"},
		metricDef{"proc.box_slowdown", "ratio"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

// layerInputs is everything the per-layer table is derived from: the spans
// and collectors still reachable through the load, the probes, the clients'
// totals and the audit's recovery figures of one traced run.
type layerInputs struct {
	cfg        runConfig
	l          *load
	ph         phases
	tot        totals
	au         auditResult
	goroutines int
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// compute joins the spans with the public Collector / Durability counters
// into the per-layer metrics.
func (in layerInputs) compute(res *result) error {
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v} }
	l, p0, p1 := in.l, in.ph.probes[0], in.ph.probes[windowSlices]
	window := in.cfg.window.Seconds()
	winNs := window * 1e9
	commits := float64(in.tot.commits)
	ktxn := commits / 1000

	put("client.abort_share", in.tot.abortShare())
	put("client.fail_share", in.tot.failShare())
	put("client.starved_share", in.tot.starvedShare())
	txnTail, _ := windowTail(in.tot.txnLat)
	reqTail, _ := windowTail(in.tot.reqLat)
	put("client.txn_p99_us", txnTail/1e3)
	put("client.req_p99_us", reqTail/1e3)

	// One pass over the client.submit spans that ended inside the window:
	// their total time, how long each waited for a round to start, and how
	// many rounds started while it waited.
	from, to := l.winStart.Load(), l.winEnd.Load()
	qs := l.tr.qualifySpans(from, to)
	starts := roundStarts(qs)
	var submits, submitNs, waitNs, waited, matched float64
	for _, c := range l.clients {
		for _, s := range c.spans {
			if !s.submit || s.end < from || s.end >= to {
				continue
			}
			submits++
			submitNs += float64(s.end - s.start)
			i := sort.Search(len(starts), func(i int) bool { return starts[i] >= s.start })
			if i == len(starts) || starts[i] > s.end {
				continue
			}
			j := sort.Search(len(starts), func(j int) bool { return starts[j] > s.end })
			waitNs += float64(starts[i] - s.start)
			waited += float64(j - i)
			matched++
		}
	}

	// netproto: what the wire adds around the middleware's own latency.
	mwLatNs := ratio(float64(p1.latSum-p0.latSum), float64(p1.latCount-p0.latCount))
	if in.cfg.spec.wire {
		submitMean := ratio(submitNs, submits)
		put("netproto.submit_us_mean", submitMean/1e3)
		put("netproto.self_us_mean", (submitMean-mwLatNs)/1e3)
	} else {
		put("netproto.submit_us_mean", 0)
		put("netproto.self_us_mean", 0)
	}
	put("netproto.err_busy", float64(in.tot.errBusy))
	put("netproto.err_other", float64(in.tot.errOther))

	// scheduler: the exact per-round records.
	col := l.st.mw.Collector()
	rounds := col.Rounds()
	put("metrics.rounds_retained", float64(len(rounds)))
	rounds = rounds[min(p0.rounds, len(rounds)):min(p1.rounds, len(rounds))]
	var totalNs, qualifyNs, pending, qualified, victims, cross float64
	roundNs := make([]int64, len(rounds))
	for i, r := range rounds {
		roundNs[i] = int64(r.Total)
		totalNs += float64(r.Total)
		qualifyNs += float64(r.Duration)
		pending += float64(r.Pending)
		qualified += float64(r.Qualified)
		victims += float64(r.Victims)
		cross += float64(r.Cross)
	}
	slices.Sort(roundNs)
	n := float64(len(rounds))
	put("scheduler.rounds_per_s", n/window)
	put("scheduler.round_us_mean", ratio(totalNs, n)/1e3)
	put("scheduler.round_us_p99", float64(exactQuantile(roundNs, tailQuantile(len(roundNs))))/1e3)
	put("scheduler.busy_share", totalNs/winNs)
	put("scheduler.self_share", (totalNs-qualifyNs)/winNs)
	put("scheduler.pending_mean", ratio(pending, n))
	put("scheduler.qualified_ratio", ratio(qualified, pending))
	put("scheduler.victims_per_ktxn", ratio(victims, ktxn))
	put("scheduler.cross_per_ktxn", ratio(cross, ktxn))
	put("scheduler.queue_wait_us_mean", ratio(waitNs, matched)/1e3)
	put("scheduler.rounds_waited_mean", ratio(waited, matched))

	imbalance := 0.0
	if pe := l.st.parted; pe != nil {
		var sum, most float64
		for i := 0; i < pe.Partitions(); i++ {
			pr := col.PartitionRounds(i)
			pr = pr[min(p0.partRounds[i], len(pr)):min(p1.partRounds[i], len(pr))]
			var ns float64
			for _, r := range pr {
				ns += float64(r.Duration)
			}
			sum += ns
			most = max(most, ns)
		}
		imbalance = ratio(most, sum/float64(pe.Partitions()))
	}
	put("scheduler.shard_imbalance", imbalance)
	put("scheduler.rebalance_moves", float64(p1.dirVersion-p0.dirVersion))

	// protocol: the decorator's spans.
	var spanNs, spanPending, spanHistory, spanDelta float64
	spanDur := make([]int64, len(qs))
	spanStrat := map[string]int{}
	for i, s := range qs {
		spanDur[i] = s.end - s.start
		spanNs += float64(s.end - s.start)
		spanPending += float64(s.pending)
		spanHistory += float64(s.history)
		spanDelta += float64(s.delta)
		spanStrat[s.strategy]++
	}
	slices.Sort(spanDur)
	calls := float64(len(qs))
	put("protocol.qualify_calls", calls)
	put("protocol.qualify_us_mean", ratio(spanNs, calls)/1e3)
	put("protocol.qualify_us_p99", float64(exactQuantile(spanDur, tailQuantile(len(spanDur))))/1e3)
	put("protocol.qualify_share", spanNs/winNs)
	put("protocol.ns_per_pending_row", ratio(spanNs, spanPending))
	put("protocol.history_rows_mean", ratio(spanHistory, calls))
	put("protocol.delta_ratio", ratio(spanDelta, spanPending+spanHistory))
	for _, s := range strategies {
		put("protocol.strategy_share."+s, ratio(float64(spanStrat[s]), calls))
	}
	cold, err := l.tr.coldReplay(in.cfg.spec.newProtocol(), qs)
	if err != nil {
		return err
	}
	put("protocol.cold_replay_us", float64(cold.Nanoseconds())/1e3)

	// storage.
	execNs := float64(p1.execSum - p0.execSum)
	put("storage.exec_us_mean", ratio(execNs, float64(p1.execCount-p0.execCount))/1e3)
	put("storage.exec_share", execNs/winNs)
	put("storage.journal_bytes_per_txn", ratio(float64(p1.journalBytes-p0.journalBytes), commits))
	put("storage.journal_records_per_txn", ratio(float64(p1.journalRecords-p0.journalRecords), commits))
	put("storage.syncs_per_ktxn", ratio(float64(p1.syncs-p0.syncs), ktxn))
	put("storage.checkpoints", float64(p1.checkpoints-p0.checkpoints))
	put("storage.checkpoint_bytes_per_txn", ratio(float64(p1.checkpointBytes-p0.checkpointBytes), commits))
	put("storage.recover_ms", float64(in.au.recoverTime.Microseconds())/1e3)
	put("storage.replayed_records", float64(in.au.replayed))

	put("metrics.snapshot_us_start", p0.snapshotUs)
	put("metrics.snapshot_us_end", p1.snapshotUs)

	put("proc.gc_cycles", float64(p1.mem.NumGC-p0.mem.NumGC))
	put("proc.gc_pause_ms", float64(p1.mem.PauseTotalNs-p0.mem.PauseTotalNs)/1e6)
	put("proc.heap_live_mb_end", float64(p1.mem.HeapAlloc)/(1<<20))
	put("proc.goroutines_end", float64(in.goroutines))
	put("proc.box_slowdown", in.ph.slowWindow)
	put("trace.overhead_pct", 100*ratio(in.ph.rateOff-in.ph.rateOn, in.ph.rateOff))
	return nil
}
