// Command benchtab regenerates the GridSAT paper's evaluation tables and
// ablation studies on the simulated grid.
//
//	benchtab -table 1                regenerate Table 1 (all 42 rows)
//	benchtab -table 2                regenerate Table 2 (9 rows + batch)
//	benchtab -table 1 -rows 6pipe,dp12s12
//	benchtab -ablation sharelen      clause-share-length sweep (§3.2)
//	benchtab -ablation splittimeout  split-timeout floor (§3.3)
//	benchtab -ablation pruning       level-0 clause pruning on/off (§3.1)
//	benchtab -ablation ranking       NWS host ranking vs flat placement
//	benchtab -ablation engine        Fidelity2003 vs the shipped engine preset
//	benchtab -ablation split         split strategies and their split trees
//	benchtab -ablation hybrid        split-only vs portfolio-only vs hybrid
//	benchtab -ablation sched         multi-job scheduling (Poisson workload)
//	benchtab -ablation engine -ablation-out rows.json
//	benchtab -bhonly                 par32-1-c Blue-Horizon-only rerun
//
// Every ablation but sched is a list of arms swept over the same base run
// (bench.Ablations); -ablation-out writes its rows, one bench.ArmRow per
// (instance, arm), as JSON, and -rows replaces its instances.
//
// Times are virtual seconds at the fixed scale (1 vsec ≈ 10 paper
// seconds); runs are deterministic.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gridsat/internal/bench"
	"gridsat/internal/gen"
)

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate table 1 or 2")
		rows        = flag.String("rows", "", "comma-separated row filter")
		scale       = flag.Float64("scale", 1.0, "budget scale factor (1.0 = paper-faithful)")
		seed        = flag.Int64("seed", 1, "grid contention seed")
		ablation    = flag.String("ablation", "", "sharelen | splittimeout | pruning | ranking | engine | split | hybrid | sched")
		schedJobs   = flag.Int("sched-jobs", 8, "job count for the sched ablation's Poisson workload")
		schedGap    = flag.Float64("sched-gap", 8, "mean inter-arrival gap (vsec) for the sched ablation")
		ablationOut = flag.String("ablation-out", "", "also write the ablation's rows as JSON here (every ablation but sched)")
		threads     = flag.Int("threads", 0, "portfolio workers per simulated client (0/1 = single-solver)")
		bhOnly      = flag.Bool("bhonly", false, "rerun par32-1-c on Blue Horizon alone")
		quiet       = flag.Bool("q", false, "suppress per-row progress")
	)
	flag.Parse()

	opts := bench.Options{Scale: *scale, Seed: *seed, Threads: *threads}
	if *rows != "" {
		opts.Rows = strings.Split(*rows, ",")
	}
	if !*quiet {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	did := false
	if *table == 1 {
		did = true
		out := bench.Table1(opts)
		fmt.Println(bench.RenderTable1(out))
		if issues := bench.Shape(out); len(issues) > 0 {
			fmt.Println("shape deviations from the paper:")
			for _, i := range issues {
				fmt.Println("  -", i)
			}
		} else {
			fmt.Println("shape: all qualitative Table-1 claims reproduced")
		}
	}
	if *table == 2 {
		did = true
		out := bench.Table2(opts)
		fmt.Println(bench.RenderTable2(out))
		if issues := bench.Shape2(out); len(issues) > 0 {
			fmt.Println("shape deviations from the paper:")
			for _, i := range issues {
				fmt.Println("  -", i)
			}
		} else {
			fmt.Println("shape: all qualitative Table-2 claims reproduced")
		}
	}
	if *ablation != "" {
		did = true
		if *ablation == "sched" {
			jobs := bench.PoissonWorkload(*schedJobs, *schedGap, *seed)
			fmt.Printf("ablation: scheduling a %d-job Poisson workload (mean gap %gvs, %d clients)\n",
				*schedJobs, *schedGap, bench.SchedWorkloadClients)
			fmt.Print(bench.RenderSchedAblation(bench.AblationSched(jobs, opts)))
		} else {
			runAblation(*ablation, *ablationOut, opts)
		}
	}
	if *bhOnly {
		did = true
		inst, _ := gen.ByName("par32-1-c")
		res := bench.BlueHorizonOnly(inst, opts)
		fmt.Printf("par32-1-c on Blue Horizon alone: outcome=%v vsec=%.0f batch-start=%.0f batch-time=%.0f\n",
			res.Outcome, res.VSec, res.BatchStartVSec, res.VSec-res.BatchStartVSec)
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

func runAblation(name, outPath string, opts bench.Options) {
	for _, a := range bench.Ablations {
		if a.Name != name {
			continue
		}
		rows := a.Run(opts)
		fmt.Printf("ablation: %s\n", a.Title)
		fmt.Print(a.Render(rows))
		if outPath != "" {
			if err := bench.WriteAblation(outPath, rows); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "benchtab: %s ablation JSON written to %s\n", name, outPath)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "benchtab: unknown ablation %q\n", name)
	os.Exit(2)
}
