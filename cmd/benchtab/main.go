// Command benchtab regenerates the GridSAT paper's evaluation tables and
// ablation studies on the simulated grid.
//
//	benchtab -table 1                regenerate Table 1 (all 42 rows)
//	benchtab -table 2                regenerate Table 2 (9 rows + batch)
//	benchtab -table 1 -rows 6pipe,dp12s12
//	benchtab -bhonly                 par32-1-c Blue-Horizon-only rerun
//	benchtab -ablation sharelen      clause-share-length sweep (§3.2)
//	benchtab -ablation splittimeout  split-timeout floor (§3.3)
//	benchtab -ablation pruning       level-0 clause pruning on/off (§3.1)
//	benchtab -ablation ranking       NWS host ranking vs flat placement
//	benchtab -ablation engine        Fidelity2003 vs the shipped engine preset
//	benchtab -ablation split         split strategies and their split trees
//	benchtab -ablation hybrid        split-only vs portfolio-only vs hybrid
//	benchtab -ablation sched         multi-job scheduling (Poisson workload)
//	benchtab -ablation engine -ablation-out rows.json
//
// Every output is one entry of bench.Experiments, looked up by name
// (-table N is "tableN"), swept by bench.Sweep and printed by the entry's
// renderer. -rows replaces the entry's instances (run in suite order, once
// each) and must name suite rows; every name and row is checked before the
// first run. -ablation-out writes the rows, one bench.ArmRow per (instance,
// arm), as JSON.
//
// Times are virtual seconds at the fixed scale (1 vsec ≈ 10 paper
// seconds); runs are deterministic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gridsat/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is benchtab with its arguments and output streams; it returns the
// exit code: 0, 1 on an I/O error, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ExitOnError) // -h exits 0, a bad flag 2
	fs.SetOutput(stderr)
	var (
		table       = fs.Int("table", 0, "regenerate table 1 or 2")
		rows        = fs.String("rows", "", "comma-separated suite rows to run instead of the entry's own")
		scale       = fs.Float64("scale", 1.0, "budget scale factor (1.0 = paper-faithful)")
		seed        = fs.Int64("seed", 1, "grid contention seed")
		ablation    = fs.String("ablation", "", "sharelen | splittimeout | pruning | ranking | engine | split | hybrid | sched")
		schedGap    = fs.Float64("sched-gap", 8, "mean inter-arrival gap (vsec) for the sched ablation")
		ablationOut = fs.String("ablation-out", "", "also write the rows as JSON here")
		threads     = fs.Int("threads", 0, "portfolio workers per simulated client (0/1 = single-solver)")
		bhOnly      = fs.Bool("bhonly", false, "rerun par32-1-c on Blue Horizon alone")
		quiet       = fs.Bool("q", false, "suppress per-run progress")
	)
	fs.Parse(args)

	var names []string
	if *table != 0 {
		names = append(names, fmt.Sprintf("table%d", *table))
	}
	if *ablation != "" {
		names = append(names, *ablation)
	}
	if *bhOnly {
		names = append(names, "bhonly")
	}
	if len(names) == 0 {
		fs.Usage()
		return 2
	}
	rowNames := strings.FieldsFunc(*rows, func(r rune) bool { return r == ',' })
	opts := bench.Options{Scale: *scale, Seed: *seed, Threads: *threads, SchedGapVSec: *schedGap}
	if !*quiet {
		opts.Progress = func(s string) { fmt.Fprintln(stderr, s) }
	}

	var es []bench.Experiment
	for _, name := range names {
		e, ok := bench.Lookup(name)
		if !ok {
			fmt.Fprintf(stderr, "benchtab: unknown experiment %q\n", name)
			return 2
		}
		if _, err := e.Instances(rowNames); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 2
		}
		es = append(es, e)
	}
	var all []bench.ArmRow
	for _, e := range es { // each checked above
		insts, _ := e.Instances(rowNames)
		rows := bench.Sweep(e, insts, opts)
		fmt.Fprint(stdout, e.Render(rows, opts))
		all = append(all, rows...)
	}
	if *ablationOut != "" {
		if err := bench.WriteAblation(*ablationOut, all); err != nil {
			fmt.Fprintln(stderr, "benchtab:", err)
			return 1
		}
		fmt.Fprintf(stderr, "benchtab: %s rows written to %s\n", strings.Join(names, ", "), *ablationOut)
	}
	return 0
}
