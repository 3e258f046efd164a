package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/request"
)

// TestMain lets the test binary stand in for the program when the suite
// re-executes it for one run (runChild starts os.Executable with --workload).
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--workload") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSuiteSmoke runs the whole suite at a short window: every workload
// untraced and traced, each in a re-executed child process. Every named
// metric must be present with its unit and finite, nothing may fail and
// every audit must pass.
func TestSuiteSmoke(t *testing.T) {
	dir := t.TempDir()
	var log strings.Builder
	set, err := runSuite(&log, 1, []string{"--seconds", "0.5", "--tmp", filepath.Join(dir, "tmp")}, 1, 0.5)
	if err != nil {
		t.Fatalf("suite: %v\n%s", err, log.String())
	}
	setPath := filepath.Join(dir, "set.json")
	if err := set.write(setPath); err != nil {
		t.Fatal(err)
	}
	check := func(workload string, got map[string]*series, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", workload, len(got), len(defs))
		}
		for _, d := range defs {
			s := got[d.name]
			switch {
			case s == nil:
				t.Errorf("%s: metric %s missing", workload, d.name)
			case s.Unit != d.unit:
				t.Errorf("%s: %s has unit %q, want %q", workload, d.name, s.Unit, d.unit)
			case len(s.Values) != 1 || math.IsNaN(s.Median) || math.IsInf(s.Median, 0):
				t.Errorf("%s: %s = %v", workload, d.name, s.Values)
			}
		}
	}
	for _, spec := range workloads {
		wr := set.Workloads[spec.name]
		if wr == nil {
			t.Fatalf("workload %s missing from the set", spec.name)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct %v, attempted %d, failed %d", spec.name, wr.Correct, wr.Attempted, wr.Failed)
		}
		check(spec.name, wr.EndToEnd, slices.Concat(endToEnd, alsoReported))
		check(spec.name, wr.PerLayer, perLayer)
		for _, d := range endToEnd {
			if s := wr.EndToEnd[d.name]; s != nil && s.Median <= 0 {
				t.Errorf("%s: %s = %g, want > 0", spec.name, d.name, s.Median)
			}
		}
	}

	// A set compared with itself is unchanged everywhere.
	var sb strings.Builder
	regressed, err := compareSets(&sb, setPath, setPath, filepath.Join("..", "BENCHMARK.json"))
	if err != nil || regressed {
		t.Errorf("self-compare: regressed %v, err %v\n%s", regressed, err, sb.String())
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json against the tables the
// program emits from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, bf.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", got[i].Name, got[i].Better)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// bareProtocol implements none of the optional interfaces.
type bareProtocol struct{ calls int }

func (*bareProtocol) Name() string { return "bare" }
func (b *bareProtocol) Qualify(pending, _ []request.Request) ([]request.Request, error) {
	b.calls++
	return pending, nil
}

// TestDecoratorFallbacks: around a protocol without the optional interfaces
// the decorator answers each probe the way the engine treats its absence.
func TestDecoratorFallbacks(t *testing.T) {
	tr := newTracer(time.Now(), time.Second)
	tr.enabled.Store(true)
	inner := &bareProtocol{}
	p := tr.wrap(inner, 0).(*tracedProtocol)
	pending := []request.Request{{ID: 1, TA: 1, Op: request.Read, Object: 3}}
	out, err := p.QualifyIncremental(pending, nil, protocol.Deltas{PendingAdded: pending})
	if err != nil || len(out) != 1 || inner.calls != 1 {
		t.Fatalf("QualifyIncremental fell back wrongly: out %v, err %v, calls %d", out, err, inner.calls)
	}
	if p.LastStrategy() != "" || p.Wounded() != nil || p.ObjectDecomposable() {
		t.Errorf("fallbacks: strategy %q, wounded %v, decomposable %v", p.LastStrategy(), p.Wounded(), p.ObjectDecomposable())
	}
	p.SetParallelism(4) // must not panic
	if len(p.spans) != 1 || p.spans[0].pending != 1 || len(p.captures) != 1 {
		t.Errorf("spans %+v, captures %d", p.spans, len(p.captures))
	}
}

// TestTracedRunKeepsStrategies is the reason the decorator forwards
// QualifyIncremental: a wrapper that hid it would drop the engine to cold
// rounds. Traced and untraced runs of one workload must choose the same
// evaluation strategies, within 0.05 per strategy.
func TestTracedRunKeepsStrategies(t *testing.T) {
	spec, _ := findWorkload("wire_light")
	shares := func(traced bool) map[string]float64 {
		base := time.Now()
		var tr *tracer
		if traced {
			tr = newTracer(base, time.Second)
			tr.enabled.Store(true)
		}
		st, err := buildStack(spec, tr, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		sessions, err := spec.sessions(1)
		if err != nil {
			t.Fatal(err)
		}
		clients := make([]*clientState, len(sessions))
		for id, s := range sessions {
			clients[id] = &clientState{id: id, sess: s}
		}
		l := &load{st: st, tr: tr, base: base, clients: clients}
		l.start()
		time.Sleep(500 * time.Millisecond)
		l.finish()
		sum := st.mw.Collector().Summarise()
		out := map[string]float64{}
		for s, n := range sum.Strategies {
			out[s] = float64(n) / float64(sum.Rounds)
		}
		if traced {
			// The spans must tell the same story as the collector.
			spanShare := map[string]float64{}
			for _, s := range tr.protos[0].spans {
				spanShare[s.strategy] += 1 / float64(len(tr.protos[0].spans))
			}
			for s, v := range out {
				if math.Abs(spanShare[s]-v) > 0.05 {
					t.Errorf("strategy %s: spans say %.3f, collector says %.3f", s, spanShare[s], v)
				}
			}
		}
		return out
	}
	plain, traced := shares(false), shares(true)
	if len(plain) == 0 {
		t.Fatal("no strategies reported")
	}
	for _, s := range strategies {
		if math.Abs(plain[s]-traced[s]) > 0.05 {
			t.Errorf("strategy %s: untraced share %.3f, traced share %.3f", s, plain[s], traced[s])
		}
	}
	if traced["cold"] > 0.05 {
		t.Errorf("traced run took cold rounds on %.0f%% of rounds: the decorator hides QualifyIncremental", 100*traced["cold"])
	}
}

// TestSerializabilityCheckerAgrees holds the linear-time checker against
// protocol.CheckSerializable on random small logs, serializable or not.
func TestSerializabilityCheckerAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	verdicts := map[bool]int{}
	for i := 0; i < 2000; i++ {
		var log []request.Request
		txns := 2 + rng.Intn(4)
		for n := 0; n < 4+rng.Intn(12); n++ {
			op := request.Read
			if rng.Intn(2) == 0 {
				op = request.Write
			}
			log = append(log, request.Request{TA: int64(1 + rng.Intn(txns)), Op: op, Object: int64(rng.Intn(3))})
		}
		for ta := 1; ta <= txns; ta++ {
			op := request.Commit
			if rng.Intn(5) == 0 {
				op = request.Abort
			}
			log = append(log, request.Request{TA: int64(ta), Op: op, Object: request.NoObject})
		}
		want := protocol.CheckSerializable(log) == nil
		got := checkSerializable(log) == nil
		if got != want {
			t.Fatalf("log %v: linear checker says serializable=%v, protocol.CheckSerializable says %v", log, got, want)
		}
		verdicts[want]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("the random logs did not cover both verdicts: %v", verdicts)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	for n, want := range map[int]float64{10: 0.5, 100: 0.9, 500: 0.98, 1000: 0.99, 100000: 0.99} {
		if q := tailQuantile(n); q != want {
			t.Errorf("%d samples support quantile %g, want %g", n, q, want)
		}
	}
}

// TestCompareVerdicts drives -compare over hand-made sets.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"commit_txn_per_s","unit":"txn/s","better":"higher","bound":0.1},
		{"name":"txn_p50_us","unit":"us","better":"lower","bound":0.1}]}`), 0o644)
	type set struct {
		procs      int
		tput, p50  []float64
		failed     int64
		abortShare float64
		marked     bool // a calibration marked commit_txn_per_s informational
	}
	files := 0
	mk := func(in set) string {
		rs := &resultSet{GOMAXPROCS: in.procs, Seconds: 10, Sets: len(in.tput), Workloads: map[string]*workloadResult{}}
		for _, spec := range workloads {
			wr := &workloadResult{Correct: true, Attempted: 1000, Failed: in.failed, EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
			for _, g := range alsoGates {
				wr.EndToEnd[g.Name] = &series{Unit: g.Unit}
				wr.EndToEnd[g.Name].add(0.5)
			}
			wr.EndToEnd["abort_share"].add(in.abortShare) // median of 0.5 and this
			a, b := &series{Unit: "txn/s", Informational: in.marked}, &series{Unit: "us"}
			for i := range in.tput {
				a.add(in.tput[i])
				b.add(in.p50[i])
			}
			wr.EndToEnd["commit_txn_per_s"], wr.EndToEnd["txn_p50_us"] = a, b
			rs.Workloads[spec.name] = wr
		}
		files++
		path := filepath.Join(dir, fmt.Sprintf("set%d.json", files))
		if err := rs.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one := func(v float64) []float64 { return []float64{v} }
	noisy := []float64{700, 900, 1000, 1100, 1400}
	flat := []float64{500, 500, 500, 500, 500}
	base := mk(set{procs: 2, tput: one(1000), p50: one(500), abortShare: 0.5})
	noisyBase := mk(set{procs: 2, tput: noisy, p50: flat, abortShare: 0.5})
	markedBase := mk(set{procs: 2, tput: noisy, p50: flat, abortShare: 0.5, marked: true})
	cases := []struct {
		name        string
		base, other string
		want        string
		regressed   bool
	}{
		{"same", base, mk(set{procs: 2, tput: one(1040), p50: one(520), abortShare: 0.5}), "unchanged", false},
		{"slower", base, mk(set{procs: 2, tput: one(850), p50: one(500), abortShare: 0.5}), "regressed", true},
		{"faster", base, mk(set{procs: 2, tput: one(1200), p50: one(400), abortShare: 0.5}), "improved", false},
		{"failing", base, mk(set{procs: 2, tput: one(1000), p50: one(500), failed: 1, abortShare: 0.5}), "regressed", true},
		{"more aborts", base, mk(set{procs: 2, tput: one(1000), p50: one(500), abortShare: 0.6}), "regressed", true},
		// A 15% drop that a noisy or marked baseline cannot tell from its own
		// runs is not a verdict; a 2x drop, below every run of the baseline, is.
		{"noisy", noisyBase, mk(set{procs: 2, tput: one(850), p50: one(500), abortShare: 0.5}), "unresolved", false},
		{"marked", markedBase, mk(set{procs: 2, tput: one(850), p50: one(500), abortShare: 0.5}), "informational", false},
		{"noisy halved", noisyBase, mk(set{procs: 2, tput: one(500), p50: one(500), abortShare: 0.5}), "regressed", true},
		{"marked halved", markedBase, mk(set{procs: 2, tput: one(500), p50: one(500), abortShare: 0.5}), "regressed", true},
		{"marked both halved", markedBase, mk(set{procs: 2, tput: []float64{350, 450, 500, 550, 700}, p50: flat, abortShare: 0.5, marked: true}), "regressed", true},
	}
	for _, c := range cases {
		var sb strings.Builder
		regressed, err := compareSets(&sb, c.base, c.other, bench)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.regressed, sb.String())
		}
		if !strings.Contains(sb.String(), c.want) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.want, sb.String())
		}
	}
	if _, err := compareSets(&strings.Builder{}, base, mk(set{procs: 4, tput: one(1000), p50: one(500), abortShare: 0.5}), bench); err == nil {
		t.Error("sets with different GOMAXPROCS were compared")
	}
}

// TestMarkInformational: the mark follows the interquartile range, not the
// full range, which one outlier in ten runs would blow.
func TestMarkInformational(t *testing.T) {
	gates := []gate{{Name: "commit_txn_per_s", Better: "higher", Bound: 0.1}}
	rs := &resultSet{Workloads: map[string]*workloadResult{"w": {EndToEnd: map[string]*series{"commit_txn_per_s": {}}}}}
	s := rs.Workloads["w"].EndToEnd["commit_txn_per_s"]
	for _, v := range []float64{1000, 1010, 990, 1005, 995, 1000, 1002, 998, 1001, 600} {
		s.add(v)
	}
	if rs.markInformational(gates); s.Informational {
		t.Error("one outlier in ten runs marked the metric informational")
	}
	for _, v := range []float64{600, 650, 1400, 1350, 700, 1300} {
		s.add(v)
	}
	if rs.markInformational(gates); !s.Informational {
		t.Errorf("spread %v not marked", s.Values)
	}
}
