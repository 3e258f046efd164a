// Command benchmark is the end-to-end benchmark of the declarative
// scheduler and the only source of this repository's performance claims.
// README.md describes the workloads, the metrics and how to run, calibrate
// and compare; BENCHMARK.json (repository root) names them for the driver.
//
//	bash benchmark/run.sh --workload wire_light --seed 1 --seconds 10 --trace 0   # one run, the driver's form
//	go run ./benchmark -out set.json                                              # every workload, untraced then traced
//	go run ./benchmark -calibrate 10 -out benchmark/calibration.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as the last line (the driver's form); empty runs every workload in child processes")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same transactions")
		seconds      = flag.Float64("seconds", 10, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		tmp          = flag.String("tmp", ".bench_build/tmp", "directory for the durable workload's journal")
		spans        = flag.String("spans", "", "traced run: write the spans to this file as JSON lines")
		out          = flag.String("out", "", "suite and -calibrate: write the result set to this file")
		calibrate    = flag.Int("calibrate", 0, "run this many untraced sets (and one traced) and record medians, quartiles and informational marks")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		benchJSON    = flag.String("benchmark-json", "BENCHMARK.json", "where -compare and -calibrate read directions and bounds")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare a.json b.json")
		}
		regressed, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1), *benchJSON)
		if err != nil {
			fatal(2, "%v", err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workloadName != "":
		spec, found := findWorkload(*workloadName)
		if !found {
			fatal(2, "unknown workload %q", *workloadName)
		}
		runOne(runConfig{
			spec: spec, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
			traced: *trace != 0, tmp: *tmp, spans: *spans,
		})
	default:
		sets := max(*calibrate, 1)
		gates, err := readGates(*benchJSON)
		if *calibrate > 0 && err != nil {
			fatal(2, "%v", err)
		}
		set, err := runSuite(os.Stdout, sets, []string{
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--tmp", *tmp,
		}, *seed, *seconds)
		if err != nil {
			fatal(1, "%v", err)
		}
		if *calibrate > 0 {
			set.markInformational(gates)
		}
		if *out != "" {
			if err := set.write(*out); err != nil {
				fatal(1, "%v", err)
			}
		}
		if !set.ok() {
			os.Exit(1)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// runDeadline is the watchdog of a single run: the driver allows 180 s, and
// a wedged scheduler must surface as a failed run rather than a hang.
const runDeadline = 170 * time.Second

// runOne is the driver's form: one workload, one run, the result as the last
// line of standard output. Exit code 0 means the run completed and its
// audits passed.
func runOne(cfg runConfig) {
	time.AfterFunc(runDeadline, func() { fatal(3, "%s: run exceeded %s", cfg.spec.name, runDeadline) })
	fmt.Printf("%s; seed %d, window %s, GOMAXPROCS %d, traced %v\n", cfg.spec, cfg.seed, cfg.window, runtime.GOMAXPROCS(0), cfg.traced)
	res, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		fatal(1, "%s: %v", cfg.spec.name, err)
	}
	printMetrics(os.Stdout, res)
	if len(res.Also) > 0 {
		also, err := json.Marshal(res.Also)
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Println(alsoPrefix + string(also))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// alsoPrefix starts the line on which an untraced run prints res.Also as
// JSON; the suite reads it back (runChild).
const alsoPrefix = "also "

// printMetrics lists every metric by name with its unit.
func printMetrics(w io.Writer, res result) {
	for _, ms := range []map[string]metric{res.Metrics, res.Also} {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	fmt.Fprintf(w, "  correct %v, %d transactions attempted, %d failed\n", res.Correct, res.Attempted, res.Failed)
}
