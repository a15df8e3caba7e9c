// Command gridbench is the repository's one benchmark. It builds the
// shipped binaries, generates the inputs from -seed, runs a workload
// through the surfaces users touch, checks every verdict, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object with the result.
//
//	gridbench -workload seq-mix -seed 1 -seconds 25 -trace 0   end-to-end metrics
//	gridbench -workload seq-mix -seed 1 -seconds 25 -trace 1   per-layer metrics + span file
//	gridbench -seed 1                                          every workload, both ways
//	gridbench -repeat 10                                       ten seeds per workload, spreads
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"gridsat/benchmark/harness"
	"gridsat/benchmark/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all of "+fmt.Sprint(workloads.Names)+")")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 25, "how long one run measures")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics; 1: the traced run with per-layer metrics; default both")
		repeat   = flag.Int("repeat", 0, "run every workload at this many seeds (seed, seed+1, ...) and report each metric's quartile spread")
		verbose  = flag.Bool("v", false, "print one line per finished job to standard error")
		rootFlag = flag.String("root", "", "repository root (default: the directory above the working one that holds BENCHMARK.json)")
	)
	flag.Parse()
	root := *rootFlag
	if root == "" {
		var err error
		if root, err = harness.FindRoot("."); err != nil {
			fatal(err)
		}
	}
	out := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}

	g := &harness.Group{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		g.StopAll()
		os.Exit(130)
	}()
	b := &bench{root: root, out: out, group: g, seconds: *seconds, verbose: *verbose}
	code := b.main(*workload, *seed, *trace, *repeat)
	g.StopAll()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridbench:", err)
	os.Exit(1)
}

type bench struct {
	root, out string
	group     *harness.Group
	seconds   float64
	verbose   bool
}

func (b *bench) main(workload string, seed int64, trace, repeat int) int {
	names := workloads.Names
	if workload != "" {
		names = []string{workload}
	}
	if repeat > 0 {
		return b.repeat(names, seed, repeat)
	}
	code := 0
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if trace >= 0 && traced != (trace == 1) {
				continue
			}
			res, err := b.runOne(name, seed, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: %s: %v\n", name, err)
				code = 1
				if !errors.Is(err, harness.ErrIncorrect) {
					continue // nothing was measured: no result line
				}
			}
			res.print(name, seed, traced)
		}
	}
	return code
}

// repeat is what benchmark/run.sh --repeat calls: every workload at n
// seeds, the quartile spread of each end-to-end metric, and all of it in
// benchmark/out/results.json.
func (b *bench) repeat(names []string, seed int64, n int) int {
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Median   float64   `json:"median"`
		Spread   float64   `json:"spread"`
	}
	var rows []row
	code := 0
	for _, name := range names {
		series := map[string][]float64{}
		var order []metric
		for i := 0; i < n; i++ {
			res, err := b.runOne(name, seed+int64(i), false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: %s seed %d: %v\n", name, seed+int64(i), err)
				code = 1
				continue
			}
			res.print(name, seed+int64(i), false)
			if res.Failed > 0 {
				code = 1
			}
			order = res.metrics
			for _, m := range res.metrics {
				series[m.name] = append(series[m.name], m.value)
			}
		}
		for _, m := range order {
			v := series[m.name]
			rows = append(rows, row{name, m.name, m.unit, v, harness.Median(v), harness.Spread(v)})
		}
	}
	fmt.Printf("\n%-16s %-12s %12s %-4s %8s  (quartile spread as a share of the median, %d seeds)\n", "workload", "metric", "median", "unit", "spread", n)
	for _, r := range rows {
		fmt.Printf("%-16s %-12s %12.4f %-4s %7.2f%%\n", r.Workload, r.Metric, r.Median, r.Unit, 100*r.Spread)
	}
	raw, err := json.MarshalIndent(rows, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(b.out, "results.json"), raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		return 1
	}
	return code
}
