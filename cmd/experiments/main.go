// Command experiments regenerates every table and figure of the paper's
// evaluation, one harness per experiment in internal/experiments, plus two
// studies the paper leaves open: the native scheduler's sensitivity to the
// workload (skew, write share, transaction length) and the partitioned
// scheduler under skewed load. Where the paper gives a figure, the output
// prints it beside the measured one.
//
// Usage:
//
//	experiments [-run all|table1|table2|figure2|declovh|crossover|productivity|sensitivity|partitionskew]
//	            [-scale 0.1] [-reps 5] [-clients 32]
//
// scale shrinks the virtual 240 s budget of the Figure 2 simulation (1.0
// reproduces the paper's full runs; the ratio series is budget-invariant).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all, table1, table2, figure2, declovh, crossover, productivity, sensitivity, partitionskew")
	scale := flag.Float64("scale", 0.25, "fraction of the paper's 240s virtual budget for simulations")
	reps := flag.Int("reps", 3, "repetitions for timed declarative rounds")
	clients := flag.Int("clients", 32, "closed-loop clients for the partitionskew sweep")
	flag.Parse()

	want := func(name string) bool { return *run == "all" || *run == name }
	ran := false

	if want("table1") {
		ran = true
		fmt.Println(experiments.FormatTable1())
	}
	if want("table2") {
		ran = true
		fmt.Println(experiments.FormatTable2())
	}
	if want("figure2") {
		ran = true
		points := experiments.Figure2(experiments.DefaultFigure2Clients, *scale)
		fmt.Println(experiments.FormatFigure2(points))
	}
	if want("declovh") {
		ran = true
		cfg := experiments.DefaultDeclOverheadConfig()
		cfg.Reps = *reps
		points, err := experiments.DeclOverhead(cfg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "declovh:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.FormatDeclOverhead(points))
	}
	if want("crossover") {
		ran = true
		cfg := experiments.DefaultDeclOverheadConfig()
		cfg.Reps = *reps
		points, err := experiments.Crossover([]int{100, 200, 300, 400, 500, 600}, *scale, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crossover:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.FormatCrossover(points))
	}
	if want("productivity") {
		ran = true
		fmt.Println(experiments.FormatProductivity())
	}
	if want("sensitivity") {
		ran = true
		points := experiments.Sensitivity(300, *scale)
		fmt.Println(experiments.FormatSensitivity(points))
	}
	if want("partitionskew") {
		ran = true
		points, err := experiments.PartitionSkew([]int{1, 2, 4, 8}, *clients)
		if err != nil {
			fmt.Fprintln(os.Stderr, "partitionskew:", err)
			os.Exit(1)
		}
		fmt.Println(experiments.FormatPartitionSkew(points))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
}
