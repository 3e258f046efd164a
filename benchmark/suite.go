package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// series is one metric of one workload over the runs of a result set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Q1 and Q3 are present from two values on.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	// Informational marks a metric whose spread over a calibration's runs
	// exceeds its bound on this workload: -compare fails it only on a change
	// that leaves the calibrated range as well.
	Informational bool `json:"informational,omitempty"`
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	if len(s.Values) >= 2 {
		s.Q1, s.Q3 = quartiles(s.Values)
	}
}

// spread is the interquartile range as a share of the median, the driver's
// steadiness measure; ok is false when the set has too few runs to say.
func (s *series) spread() (v float64, ok bool) {
	if len(s.Values) < 4 || s.Median == 0 {
		return 0, false
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median), true
}

// workloadResult collects one workload's runs; the counts are over all of
// them, traced included.
type workloadResult struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
}

// resultSet is what the suite writes and -compare reads. A plain suite run
// is a set of one; -calibrate N is a set of N.
type resultSet struct {
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seconds    float64                    `json:"seconds"`
	Sets       int                        `json:"sets"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func (rs *resultSet) ok() bool {
	for _, w := range rs.Workloads {
		if !w.Correct || w.Failed > 0 {
			return false
		}
	}
	return true
}

func (rs *resultSet) write(path string) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// runSuite runs every workload `sets` times untraced (set i with seed+i) and
// once traced, each run in a fresh child process of this program. common are
// the arguments every child gets.
func runSuite(w io.Writer, sets int, common []string, seed int64, seconds float64) (*resultSet, error) {
	rs := &resultSet{GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: seconds, Sets: sets, Workloads: map[string]*workloadResult{}}
	for _, spec := range workloads {
		rs.Workloads[spec.name] = &workloadResult{Correct: true, EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
	}
	record := func(name string, into map[string]*series, res result) {
		wr := rs.Workloads[name]
		wr.Correct = wr.Correct && res.Correct
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		for _, ms := range []map[string]metric{res.Metrics, res.Also} {
			for metricName, m := range ms {
				s := into[metricName]
				if s == nil {
					s = &series{Unit: m.Unit}
					into[metricName] = s
				}
				s.add(m.Value)
			}
		}
	}
	for set := 0; set < sets; set++ {
		for _, spec := range workloads {
			res, err := runChild(w, common, spec.name, seed+int64(set), false)
			if err != nil {
				return nil, err
			}
			record(spec.name, rs.Workloads[spec.name].EndToEnd, res)
		}
	}
	for _, spec := range workloads {
		res, err := runChild(w, common, spec.name, seed, true)
		if err != nil {
			return nil, err
		}
		record(spec.name, rs.Workloads[spec.name].PerLayer, res)
	}
	return rs, nil
}

// runChild re-executes this program for one run and parses the result from
// the last line of its standard output, and what an untraced run reports
// besides from the line before it; the other lines pass through.
func runChild(w io.Writer, common []string, workload string, seed int64, traced bool) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, slices.Concat(common, []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--trace", trace})...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	fmt.Fprintln(w, strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s: child printed no result (%v): %q", workload, runErr, last)
	}
	if n := len(lines); n >= 2 && strings.HasPrefix(lines[n-2], alsoPrefix) {
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[n-2], alsoPrefix)), &res.Also); err != nil {
			return result{}, fmt.Errorf("%s: %w: %q", workload, err, lines[n-2])
		}
	}
	// A child that printed a result but exited non-zero failed its audit;
	// the result says so and the suite carries on to report it.
	return res, nil
}

// gate is one end-to-end metric as -compare and -calibrate judge it.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// An absolute bound is a difference of the value itself, not a share of
	// the first set's median: for the shares, which are legitimately zero.
	absolute bool
}

// alsoGates are the bounds of alsoReported, which BENCHMARK.json cannot
// carry. The tails get the widest bound the driver would allow; abort_share
// may rise by 0.03 (the issue's figure) and starved_share by 0.01. fail_share
// is compared over the sets' summed counts instead: any rise is a regression.
var alsoGates = []gate{
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "txn_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "req_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "abort_share", Unit: "ratio", Better: "lower", Bound: 0.03, absolute: true},
	{Name: "starved_share", Unit: "ratio", Better: "lower", Bound: 0.01, absolute: true},
}

// readGates returns BENCHMARK.json's end-to-end metrics followed by
// alsoGates.
func readGates(path string) ([]gate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(bf.EndToEnd, alsoGates...), nil
}

// markInformational flags every relatively bounded end-to-end metric whose
// interquartile range over the set's runs exceeds its bound on a workload.
// (The issue took the full range, which grows with the number of runs; the
// quartiles are the driver's measure and -compare's own for `unresolved`.)
func (rs *resultSet) markInformational(gates []gate) {
	for _, wr := range rs.Workloads {
		for _, g := range gates {
			if s := wr.EndToEnd[g.Name]; s != nil && !g.absolute {
				spread, ok := s.spread()
				s.Informational = ok && spread > g.Bound
			}
		}
	}
}

// verdict judges the second set's median against the first's. A metric that
// a calibration marked, or whose spread in either set exceeds the bound,
// cannot resolve a change of the bound's size — but a change that is larger
// than the bound and also puts the second median beyond every run of the
// first set is a regression whatever the mark.
func (g gate) verdict(a, b *series) string {
	worse := b.Median - a.Median
	if g.Better == "higher" {
		worse = -worse
	}
	if g.absolute {
		switch {
		case worse > g.Bound:
			return "regressed"
		case worse < -g.Bound:
			return "improved"
		}
		return "unchanged"
	}
	worse = ratio(worse, math.Abs(a.Median))
	spreadA, okA := a.spread()
	spreadB, okB := b.spread()
	marked := a.Informational || b.Informational
	steady := !marked && !(okA && spreadA > g.Bound) && !(okB && spreadB > g.Bound)
	beyond := b.Median > slices.Max(a.Values)
	if g.Better == "higher" {
		beyond = b.Median < slices.Min(a.Values)
	}
	switch {
	case worse > g.Bound && (steady || beyond):
		return "regressed"
	case marked:
		return "informational"
	case !steady:
		return "unresolved"
	case worse < -g.Bound:
		return "improved"
	}
	return "unchanged"
}

// compareSets prints, per workload and metric, both medians, the relative
// change and a verdict, and reports whether anything regressed.
func compareSets(w io.Writer, pathA, pathB, benchPath string) (regressed bool, err error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	gates, err := readGates(benchPath)
	if err != nil {
		return false, err
	}
	if a.GOMAXPROCS != b.GOMAXPROCS || a.Seconds != b.Seconds {
		return false, fmt.Errorf("sets are not comparable: GOMAXPROCS %d vs %d, window %gs vs %gs",
			a.GOMAXPROCS, b.GOMAXPROCS, a.Seconds, b.Seconds)
	}
	row := func(workload, name string, va, vb float64, unit, verdict string) {
		change := "n/a"
		if va != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(vb-va)/math.Abs(va))
		}
		fmt.Fprintf(w, "%-17s %-36s %14.4f %14.4f %-6s %8s  %s\n", workload, name, va, vb, unit, change, verdict)
		if verdict == "regressed" {
			regressed = true
		}
	}
	for _, spec := range workloads {
		wa, wb := a.Workloads[spec.name], b.Workloads[spec.name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s missing from a set", spec.name)
		}
		for _, g := range gates {
			sa, sb := wa.EndToEnd[g.Name], wb.EndToEnd[g.Name]
			if sa == nil || sb == nil || len(sa.Values) == 0 || len(sb.Values) == 0 {
				return false, fmt.Errorf("%s: metric %s missing from a set", spec.name, g.Name)
			}
			row(spec.name, g.Name, sa.Median, sb.Median, g.Unit, g.verdict(sa, sb))
		}
		failA, failB := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		verdict := "unchanged"
		if failB > failA {
			verdict = "regressed"
		}
		row(spec.name, "fail_share", failA, failB, "ratio", verdict)
		if sa, sb := wa.EndToEnd["box_slowdown"], wb.EndToEnd["box_slowdown"]; sa != nil && sb != nil {
			row(spec.name, "box_slowdown", sa.Median, sb.Median, "ratio", "informational")
		}
		for _, def := range perLayer {
			if sa, sb := wa.PerLayer[def.name], wb.PerLayer[def.name]; sa != nil && sb != nil {
				row(spec.name, def.name, sa.Median, sb.Median, def.unit, "informational")
			}
		}
	}
	return regressed, nil
}
