// Package bench regenerates the GridSAT paper's evaluation: Table 1
// (zChaff vs GridSAT on the 42-instance SAT2002 suite over the GrADS
// testbed), Table 2 (the unsolved rows re-attempted with the Blue Horizon
// batch machine), the Blue-Horizon-only rerun, and the ablations: the
// design choices the paper calls out (clause-share length, split timeout,
// level-0 pruning, scheduler ranking) and the extensions' (engine preset,
// split strategy, split vs portfolio vs hybrid, multi-job scheduling).
// Each is one Experiment in Experiments: arms over instances, each run on
// a base configuration built per instance, which Sweep runs into ArmRows
// and the experiment's renderer prints.
//
// All runs use the deterministic discrete-event runtime: times are virtual
// seconds at the repository's fixed scale (1 virtual second ≈ 10 paper
// seconds; 1000 solver propagations per virtual second on a dedicated
// speed-1.0 host), so regenerated numbers are exactly reproducible.
package bench

import (
	"fmt"
	"strings"

	"gridsat/internal/cnf"
	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
)

// The scaled experiment budgets (paper seconds ÷ 10).
const (
	// ZChaffBudgetVSec mirrors the paper's 18000 s dedicated baseline cap.
	ZChaffBudgetVSec = 1800
	// SolvableBudgetVSec mirrors the 6000 s GridSAT cap on solvable rows.
	SolvableBudgetVSec = 600
	// ChallengeBudgetVSec mirrors the 12000 s cap on challenging rows.
	ChallengeBudgetVSec = 1200
	// Table1ShareLen is the clause-share bound of the first experiment.
	Table1ShareLen = 10
	// Table2ShareLen is the bound of the second experiment.
	Table2ShareLen = 3
	// Table2QueueWaitVSec mirrors the ~33 h mean Blue Horizon queue wait
	// (scaled — queue time is modeled, not solved through).
	Table2QueueWaitVSec = 2400
	// Table2WalltimeVSec mirrors the 12 h batch walltime at the same scale.
	Table2WalltimeVSec = 720
	// Table2BatchNodes scales the paper's 100-node × 8-CPU allocation.
	Table2BatchNodes = 64
)

// Options tunes a sweep.
type Options struct {
	// Scale multiplies every virtual-time budget; 1.0 (or ≤ 0) reproduces
	// the paper's (scaled) budgets. Benchmarks use smaller scales for speed.
	Scale float64
	// Seed feeds the grid contention model and launch jitter.
	Seed int64
	// Threads is the in-host portfolio width of every simulated client
	// (0 or 1 = classic single-solver clients, the paper's setup).
	Threads int
	// SchedGapVSec is the mean inter-arrival gap of the sched workload.
	SchedGapVSec float64
	// Progress, when non-nil, receives one line per completed run.
	Progress func(string)
}

// table1Base is the paper's first experiment on one suite row: the full
// 34-host distributed run with clause-share length 10 at the row's budget
// (the gridsat arm), which the zchaff arm turns into the sequential
// baseline on the fastest dedicated GrADS node.
func table1Base(inst gen.Instance, o Options) core.RunnerConfig {
	budget := float64(SolvableBudgetVSec)
	if inst.Challenge {
		budget = ChallengeBudgetVSec
	}
	return table1Config(inst.Build(), budget, o)
}

// zchaffBaseline turns a Table-1 run into its sequential baseline on the
// same grid: one solver, under the dedicated baseline's budget.
func zchaffBaseline(c *core.RunnerConfig, o Options) {
	c.Client.Threads = 0
	c.TimeoutVSec = ZChaffBudgetVSec * o.Scale
}

// table1Config is the first experiment's distributed run: the 34-host
// GrADS testbed and clause-share length 10, under budgetVSec scaled. Every
// ablation arm but sched's starts from it at the challenge budget.
func table1Config(f *cnf.Formula, budgetVSec float64, o Options) core.RunnerConfig {
	return core.RunnerConfig{
		Grid:        grid.TestbedGrADS(o.Seed + 1),
		Master:      core.MasterConfig{Formula: f},
		Client:      core.ClientConfig{Threads: o.Threads, ShareMaxLen: Table1ShareLen},
		TimeoutVSec: budgetVSec * o.Scale,
		Seed:        o.Seed,
	}
}

// table2Base is the paper's second experiment on one Table-2 row: the
// 27-host testbed (slow machines removed), clause-share length 3, and a
// Blue Horizon batch job covering the queue wait.
func table2Base(inst gen.Instance, o Options) core.RunnerConfig {
	g := grid.TestbedTable2(o.Seed + 2)
	g.AddBlueHorizon(Table2BatchNodes)
	return batchConfig(inst.Build(), g, Table2WalltimeVSec, o)
}

// blueHorizonBase runs a Table-2 instance on the batch nodes alone — the
// paper's re-launch of par32-1-c used to compute the 3200-CPU-hour saving.
func blueHorizonBase(inst gen.Instance, o Options) core.RunnerConfig {
	g := &grid.Grid{Network: grid.DefaultNetwork(), Seed: o.Seed + 3}
	g.AddBlueHorizon(Table2BatchNodes)
	// The paper re-queued for the same machine and let the job run to
	// completion (~12 h); model that with a generous walltime so the
	// comparison measures batch time consumed, not the wall limit.
	return batchConfig(inst.Build(), g, Table2WalltimeVSec*8, o)
}

// batchConfig is the second experiment's run on g: clause-share length 3
// and a Blue Horizon batch job of walltimeVSec, ended by its walltime, with
// the run's budget covering the queue wait and the walltime (all scaled).
func batchConfig(f *cnf.Formula, g *grid.Grid, walltimeVSec float64, o Options) core.RunnerConfig {
	return core.RunnerConfig{
		Grid:        g,
		Master:      core.MasterConfig{Formula: f},
		Client:      core.ClientConfig{Threads: o.Threads, ShareMaxLen: Table2ShareLen},
		TimeoutVSec: (Table2QueueWaitVSec*1.8 + walltimeVSec) * o.Scale,
		Batch:       Table2Batch(walltimeVSec, o.Scale),
		Seed:        o.Seed,
	}
}

// Table2Batch is every run's Blue Horizon batch job (Table 2, -bhonly, sim
// -batch): walltimeVSec and the mean queue wait, both multiplied by scale.
func Table2Batch(walltimeVSec, scale float64) *core.BatchPlan {
	return &core.BatchPlan{Nodes: Table2BatchNodes, WalltimeVSec: walltimeVSec * scale,
		MeanQueueWaitVSec: Table2QueueWaitVSec * scale}
}

// outcomeCell renders a run outcome the way the paper's tables do.
func outcomeCell(r core.SimResult) string {
	switch r.Outcome {
	case core.OutcomeSolved:
		return fmt.Sprintf("%.0f", r.VSec)
	case core.OutcomeMemOut:
		return "MEM_OUT"
	default:
		return "TIME_OUT"
	}
}

// speedupCell is zChaff vsec / GridSAT vsec when both solved.
func speedupCell(z, g core.SimResult) string {
	if z.Outcome != core.OutcomeSolved || g.Outcome != core.OutcomeSolved || g.VSec <= 0 || z.VSec <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", z.VSec/g.VSec)
}

// table1Pair is rows[i] and rows[i+1], one instance's zchaff and gridsat
// runs as Sweep makes them; it panics on rows that are not.
func table1Pair(rows []ArmRow, i int) (string, core.SimResult, core.SimResult) {
	if i+1 == len(rows) || rows[i].Label != "zchaff" || rows[i+1].Label != "gridsat" || rows[i].Instance != rows[i+1].Instance {
		panic(fmt.Sprintf("table 1: rows %d and %d are not one instance's zchaff and gridsat runs", i, i+1))
	}
	return rows[i].Instance, rows[i].Result, rows[i+1].Result
}

// RenderTable1 formats Table-1 rows like the paper's Table 1 (times in
// virtual seconds; the paper's published numbers are in the two Paper
// columns). Each instance has two rows, zchaff then gridsat.
func RenderTable1(rows []ArmRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-8s %12s %12s %9s %8s   %12s %12s\n",
		"File name", "Status", "zChaff(vs)", "GridSAT(vs)", "Speed-Up", "Clients", "paper-zChaff", "paper-GridSAT")
	sec := gen.Section(-1)
	for i := 0; i < len(rows); i += 2 {
		name, z, g := table1Pair(rows, i)
		inst, _ := gen.ByName(name)
		if inst.Section != sec {
			sec = inst.Section
			fmt.Fprintf(&b, "---- %s ----\n", sectionTitles[sec])
		}
		fmt.Fprintf(&b, "%-30s %-8s %12s %12s %9s %8d   %12s %12s\n",
			name, statusCell(inst), outcomeCell(z), outcomeCell(g), speedupCell(z, g),
			g.MaxClients, inst.PaperZChaff.String(), inst.PaperGridSAT.String())
	}
	return b.String()
}

// RenderTable2 formats Table-2 rows.
func RenderTable2(rows []ArmRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-8s %12s %11s %9s   %12s\n",
		"File name", "Status", "GridSAT(vs)", "batch-start", "canceled", "paper")
	for _, r := range rows {
		inst, _ := gen.ByName(r.Instance)
		g := r.Result
		paper := "X"
		if inst.Table2Result > 0 {
			paper = fmt.Sprintf("%.0fs", inst.Table2Result)
		}
		start := "-"
		if g.BatchStartVSec > 0 {
			start = fmt.Sprintf("%.0f", g.BatchStartVSec)
		}
		fmt.Fprintf(&b, "%-30s %-8s %12s %11s %9v   %12s\n",
			r.Instance, statusCell(inst), outcomeCell(g), start, g.BatchCanceled, paper)
	}
	return b.String()
}

// renderTable prints a table and, under a blank line, its shape verdict.
func renderTable(table string, render func([]ArmRow) string, shape func([]ArmRow) []string) func([]ArmRow, Options) string {
	return func(rows []ArmRow, _ Options) string {
		verdict := "shape: all qualitative " + table + " claims reproduced\n"
		if issues := shape(rows); len(issues) > 0 {
			verdict = "shape deviations from the paper:\n  - " + strings.Join(issues, "\n  - ") + "\n"
		}
		return render(rows) + "\n" + verdict
	}
}

// renderBlueHorizon formats the Blue-Horizon-only rerun, one line a row.
func renderBlueHorizon(rows []ArmRow, _ Options) string {
	var b strings.Builder
	for _, r := range rows {
		res := r.Result
		fmt.Fprintf(&b, "%s on Blue Horizon alone: outcome=%v vsec=%.0f batch-start=%.0f batch-time=%.0f\n",
			r.Instance, res.Outcome, res.VSec, res.BatchStartVSec, res.VSec-res.BatchStartVSec)
	}
	return b.String()
}

func statusCell(inst gen.Instance) string {
	if inst.Expected == gen.StatusUnknown {
		return "*"
	}
	return inst.Expected.String()
}

// sectionTitles heads Table 1's three sections.
var sectionTitles = map[gen.Section]string{
	gen.SecBothSolved:  "Problems solved by zChaff and GridSAT",
	gen.SecGridSATOnly: "Problems solved by GridSAT only",
	gen.SecUnsolved:    "Remaining problems",
}

// Shape checks the qualitative claims of §4.1 against regenerated Table-1
// rows; it returns human-readable violations (empty = the shape holds).
func Shape(rows []ArmRow) []string {
	var issues []string
	for i := 0; i < len(rows); i += 2 {
		name, z, g := table1Pair(rows, i)
		inst, _ := gen.ByName(name)
		switch inst.Section {
		case gen.SecBothSolved:
			if z.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: baseline failed (%v), paper solved it", name, z.Outcome))
			}
			if g.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: GridSAT failed (%v), paper solved it", name, g.Outcome))
			}
		case gen.SecGridSATOnly:
			if z.Outcome == core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: baseline solved a paper-unsolvable row", name))
			}
			if g.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: GridSAT failed (%v) on a GridSAT-only row", name, g.Outcome))
			}
		case gen.SecUnsolved:
			if z.Outcome == core.OutcomeSolved || g.Outcome == core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: an unsolved row was solved in Table 1", name))
			}
		}
		// Both statuses print as SAT or UNSAT.
		if z.Outcome == core.OutcomeSolved && inst.Expected != gen.StatusUnknown && z.Status.String() != inst.Expected.String() {
			issues = append(issues, fmt.Sprintf("%s: baseline says %v, paper says %v", name, z.Status, inst.Expected))
		}
	}
	return issues
}

// Shape2 checks the qualitative claims of the paper's Table 2 against
// regenerated rows: rand-net70-25-5 and glassybp solve on the interactive
// testbed before the batch allocation arrives (job canceled), par32-1-c
// needs the Blue Horizon nodes (solves only after the batch start), and
// the remaining six rows stay unsolved.
func Shape2(rows []ArmRow) []string {
	var issues []string
	for _, r := range rows {
		g := r.Result
		switch r.Instance {
		case "rand_net70-25-5", "glassybp-v399-s499089820":
			if g.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: not solved (%v), paper solved it pre-batch", r.Instance, g.Outcome))
			} else if !g.BatchCanceled {
				issues = append(issues, fmt.Sprintf("%s: solved at %.0f but the batch job was not canceled", r.Instance, g.VSec))
			}
		case "par32-1-c":
			if g.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("par32-1-c: not solved (%v), paper solved it with Blue Horizon", g.Outcome))
			} else if g.BatchStartVSec <= 0 || g.VSec <= g.BatchStartVSec {
				issues = append(issues, fmt.Sprintf("par32-1-c: solved at %.0f without needing the batch (start %.0f)", g.VSec, g.BatchStartVSec))
			}
		default:
			if g.Outcome == core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: solved (%0.f), paper reports X", r.Instance, g.VSec))
			}
		}
	}
	return issues
}
