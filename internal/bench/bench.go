// Package bench regenerates the GridSAT paper's evaluation: Table 1
// (zChaff vs GridSAT on the 42-instance SAT2002 suite over the GrADS
// testbed), Table 2 (the unsolved rows re-attempted with the Blue Horizon
// batch machine), and the ablation sweeps for the design choices the paper
// calls out (clause-share length, split timeout, level-0 pruning,
// scheduler ranking).
//
// All runs use the deterministic discrete-event runtime: times are virtual
// seconds at the repository's fixed scale (1 virtual second ≈ 10 paper
// seconds; 1000 solver propagations per virtual second on a dedicated
// speed-1.0 host), so regenerated numbers are exactly reproducible.
package bench

import (
	"fmt"
	"strings"

	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
	"gridsat/internal/solver"
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

// Row is one line of a regenerated Table 1.
type Row struct {
	Inst    gen.Instance
	ZChaff  core.SimResult
	GridSAT core.SimResult
	// SpeedUp is zChaff vsec / GridSAT vsec when both solved.
	SpeedUp float64
}

// Options tunes a table regeneration.
type Options struct {
	// Scale multiplies every virtual-time budget; 1.0 reproduces the
	// paper's (scaled) budgets. Benchmarks use smaller scales for speed.
	Scale float64
	// Rows filters by instance name (nil = all rows).
	Rows []string
	// Seed feeds the grid contention model and launch jitter.
	Seed int64
	// Threads is the in-host portfolio width of every simulated client
	// (0 or 1 = classic single-solver clients, the paper's setup).
	Threads int
	// Progress, when non-nil, receives one line per completed row.
	Progress func(string)
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) wants(name string) bool {
	if len(o.Rows) == 0 {
		return true
	}
	for _, r := range o.Rows {
		if r == name {
			return true
		}
	}
	return false
}

// Table1 reruns the paper's first experiment: for every suite row, the
// sequential baseline on the fastest dedicated GrADS node versus the full
// 34-host distributed run with clause-share length 10.
func Table1(opts Options) []Row {
	var out []Row
	for _, inst := range gen.Suite() {
		if !opts.wants(inst.Name) {
			continue
		}
		out = append(out, runTable1Row(inst, opts))
		if opts.Progress != nil {
			r := out[len(out)-1]
			opts.Progress(fmt.Sprintf("%-30s zchaff=%-9s gridsat=%-9s speedup=%s clients=%d",
				inst.Name, outcomeCell(r.ZChaff), outcomeCell(r.GridSAT), speedupCell(r), r.GridSAT.MaxClients))
		}
	}
	return out
}

func runTable1Row(inst gen.Instance, opts Options) Row {
	f := inst.Build()
	g := grid.TestbedGrADS(opts.Seed + 1)
	budget := float64(SolvableBudgetVSec)
	if inst.Challenge {
		budget = ChallengeBudgetVSec
	}
	seqCfg := core.RunnerConfig{
		Grid:        g,
		Master:      core.MasterConfig{Formula: f},
		Client:      core.ClientConfig{ShareMaxLen: Table1ShareLen},
		TimeoutVSec: ZChaffBudgetVSec * opts.scale(),
		Seed:        opts.Seed,
	}
	distCfg := seqCfg
	distCfg.TimeoutVSec = budget * opts.scale()
	distCfg.Client.Threads = opts.Threads // the sequential baseline stays single-solver
	row := Row{
		Inst:    inst,
		ZChaff:  core.RunSequential(seqCfg),
		GridSAT: core.RunDistributed(distCfg),
	}
	if row.ZChaff.Outcome == core.OutcomeSolved && row.GridSAT.Outcome == core.OutcomeSolved &&
		row.GridSAT.VSec > 0 {
		row.SpeedUp = row.ZChaff.VSec / row.GridSAT.VSec
	}
	return row
}

// Table2 reruns the paper's second experiment on the Table-2 rows: the
// 27-host testbed (slow machines removed), clause-share length 3, and a
// Blue Horizon batch job covering the queue wait.
func Table2(opts Options) []Row {
	var out []Row
	for _, inst := range gen.Table2Rows() {
		if !opts.wants(inst.Name) {
			continue
		}
		out = append(out, runTable2Row(inst, opts))
		if opts.Progress != nil {
			r := out[len(out)-1]
			opts.Progress(fmt.Sprintf("%-30s gridsat=%-9s batchStart=%.0f canceled=%v",
				inst.Name, outcomeCell(r.GridSAT), r.GridSAT.BatchStartVSec, r.GridSAT.BatchCanceled))
		}
	}
	return out
}

func runTable2Row(inst gen.Instance, opts Options) Row {
	f := inst.Build()
	g := grid.TestbedTable2(opts.Seed + 2)
	g.AddBlueHorizon(Table2BatchNodes)
	cfg := core.RunnerConfig{
		Grid:        g,
		Master:      core.MasterConfig{Formula: f},
		Client:      core.ClientConfig{Threads: opts.Threads, ShareMaxLen: Table2ShareLen},
		TimeoutVSec: (Table2QueueWaitVSec*1.8 + Table2WalltimeVSec) * opts.scale(),
		Batch: &core.BatchPlan{
			Nodes:             Table2BatchNodes,
			WalltimeVSec:      Table2WalltimeVSec * opts.scale(),
			MeanQueueWaitVSec: Table2QueueWaitVSec * opts.scale(),
			TerminateOnEnd:    true,
		},
		Seed: opts.Seed,
	}
	return Row{Inst: inst, GridSAT: core.RunDistributed(cfg)}
}

// BlueHorizonOnly reruns a Table-2 instance on the batch nodes alone — the
// paper's re-launch of par32-1-c used to compute the 3200-CPU-hour saving.
func BlueHorizonOnly(inst gen.Instance, opts Options) core.SimResult {
	f := inst.Build()
	g := &grid.Grid{Network: grid.DefaultNetwork(), Seed: opts.Seed + 3}
	g.AddBlueHorizon(Table2BatchNodes)
	// The paper re-queued for the same machine and let the job run to
	// completion (~12 h); model that with a generous walltime so the
	// comparison measures batch time consumed, not the wall limit.
	wall := Table2WalltimeVSec * 8 * opts.scale()
	cfg := core.RunnerConfig{
		Grid:        g,
		Master:      core.MasterConfig{Formula: f},
		Client:      core.ClientConfig{ShareMaxLen: Table2ShareLen},
		TimeoutVSec: Table2QueueWaitVSec*1.8*opts.scale() + wall,
		Batch: &core.BatchPlan{
			Nodes:             Table2BatchNodes,
			WalltimeVSec:      wall,
			MeanQueueWaitVSec: Table2QueueWaitVSec * opts.scale(),
			TerminateOnEnd:    true,
		},
		Seed: opts.Seed,
	}
	return core.RunDistributed(cfg)
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

func speedupCell(r Row) string {
	if r.SpeedUp <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", r.SpeedUp)
}

// RenderTable1 formats rows like the paper's Table 1 (times in virtual
// seconds; the paper's published numbers are in the two Paper columns).
func RenderTable1(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-8s %12s %12s %9s %8s   %12s %12s\n",
		"File name", "Status", "zChaff(vs)", "GridSAT(vs)", "Speed-Up", "Clients", "paper-zChaff", "paper-GridSAT")
	sec := gen.Section(-1)
	for _, r := range rows {
		if r.Inst.Section != sec {
			sec = r.Inst.Section
			fmt.Fprintf(&b, "---- %s ----\n", sectionTitle(sec))
		}
		fmt.Fprintf(&b, "%-30s %-8s %12s %12s %9s %8d   %12s %12s\n",
			r.Inst.Name, statusCell(r.Inst), outcomeCell(r.ZChaff), outcomeCell(r.GridSAT),
			speedupCell(r), r.GridSAT.MaxClients,
			r.Inst.PaperZChaff.String(), r.Inst.PaperGridSAT.String())
	}
	return b.String()
}

// RenderTable2 formats Table-2 rows.
func RenderTable2(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-8s %12s %11s %9s   %12s\n",
		"File name", "Status", "GridSAT(vs)", "batch-start", "canceled", "paper")
	for _, r := range rows {
		paper := "X"
		if r.Inst.Table2Result > 0 {
			paper = fmt.Sprintf("%.0fs", r.Inst.Table2Result)
		}
		start := "-"
		if r.GridSAT.BatchStartVSec > 0 {
			start = fmt.Sprintf("%.0f", r.GridSAT.BatchStartVSec)
		}
		fmt.Fprintf(&b, "%-30s %-8s %12s %11s %9v   %12s\n",
			r.Inst.Name, statusCell(r.Inst), outcomeCell(r.GridSAT),
			start, r.GridSAT.BatchCanceled, paper)
	}
	return b.String()
}

func statusCell(inst gen.Instance) string {
	if inst.Expected == gen.StatusUnknown {
		return "*"
	}
	return inst.Expected.String()
}

func sectionTitle(s gen.Section) string {
	switch s {
	case gen.SecBothSolved:
		return "Problems solved by zChaff and GridSAT"
	case gen.SecGridSATOnly:
		return "Problems solved by GridSAT only"
	default:
		return "Remaining problems"
	}
}

// Shape checks the qualitative claims of §4.1 against regenerated rows;
// it returns human-readable violations (empty = the shape holds).
func Shape(rows []Row) []string {
	var issues []string
	for _, r := range rows {
		switch r.Inst.Section {
		case gen.SecBothSolved:
			if r.ZChaff.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: baseline failed (%v), paper solved it", r.Inst.Name, r.ZChaff.Outcome))
			}
			if r.GridSAT.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: GridSAT failed (%v), paper solved it", r.Inst.Name, r.GridSAT.Outcome))
			}
		case gen.SecGridSATOnly:
			if r.ZChaff.Outcome == core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: baseline solved a paper-unsolvable row", r.Inst.Name))
			}
			if r.GridSAT.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: GridSAT failed (%v) on a GridSAT-only row", r.Inst.Name, r.GridSAT.Outcome))
			}
		case gen.SecUnsolved:
			if r.ZChaff.Outcome == core.OutcomeSolved || r.GridSAT.Outcome == core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: an unsolved row was solved in Table 1", r.Inst.Name))
			}
		}
		if r.ZChaff.Outcome == core.OutcomeSolved && r.Inst.Expected != gen.StatusUnknown {
			got := r.ZChaff.Status
			want := solver.StatusUNSAT
			if r.Inst.Expected == gen.StatusSAT {
				want = solver.StatusSAT
			}
			if got != want {
				issues = append(issues, fmt.Sprintf("%s: baseline says %v, paper says %v", r.Inst.Name, got, r.Inst.Expected))
			}
		}
	}
	return issues
}

// Shape2 checks the qualitative claims of the paper's Table 2 against
// regenerated rows: rand-net70-25-5 and glassybp solve on the interactive
// testbed before the batch allocation arrives (job canceled), par32-1-c
// needs the Blue Horizon nodes (solves only after the batch start), and
// the remaining six rows stay unsolved.
func Shape2(rows []Row) []string {
	var issues []string
	for _, r := range rows {
		g := r.GridSAT
		switch r.Inst.Name {
		case "rand_net70-25-5", "glassybp-v399-s499089820":
			if g.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: not solved (%v), paper solved it pre-batch", r.Inst.Name, g.Outcome))
			} else if !g.BatchCanceled {
				issues = append(issues, fmt.Sprintf("%s: solved at %.0f but the batch job was not canceled", r.Inst.Name, g.VSec))
			}
		case "par32-1-c":
			if g.Outcome != core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("par32-1-c: not solved (%v), paper solved it with Blue Horizon", g.Outcome))
			} else if g.BatchStartVSec <= 0 || g.VSec <= g.BatchStartVSec {
				issues = append(issues, fmt.Sprintf("par32-1-c: solved at %.0f without needing the batch (start %.0f)", g.VSec, g.BatchStartVSec))
			}
		default:
			if g.Outcome == core.OutcomeSolved {
				issues = append(issues, fmt.Sprintf("%s: solved (%0.f), paper reports X", r.Inst.Name, g.VSec))
			}
		}
	}
	return issues
}
