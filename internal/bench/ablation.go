package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// AblationResult is one configuration's outcome in an ablation sweep.
type AblationResult struct {
	Label  string
	Result core.SimResult
}

// AblationShareLen sweeps the clause-share length bound (the paper's §3.2
// choice: share only "short" clauses; it used 10 and 3): 0 disables
// sharing entirely.
func AblationShareLen(f *cnf.Formula, lens []int, opts Options) []AblationResult {
	var out []AblationResult
	for _, l := range lens {
		cfg := ablationConfig(f, opts)
		cfg.Client.ShareMaxLen = l
		if l == 0 {
			cfg.Client.ShareMaxLen = -1 // negative disables sharing entirely
		}
		out = append(out, AblationResult{
			Label:  fmt.Sprintf("share-len=%d", l),
			Result: core.RunDistributed(cfg),
		})
	}
	return out
}

// AblationSplitTimeout sweeps the split-timeout floor (the paper used
// 100 s — 10 virtual seconds at our scale — to avoid the ping-pong
// effect of splitting faster than subproblems can be transferred).
func AblationSplitTimeout(f *cnf.Formula, timeouts []float64, opts Options) []AblationResult {
	var out []AblationResult
	for _, to := range timeouts {
		cfg := ablationConfig(f, opts)
		cfg.Client.MinRunTime = time.Duration(to * float64(time.Second)) // virtual seconds
		out = append(out, AblationResult{
			Label:  fmt.Sprintf("split-timeout=%gvs", to),
			Result: core.RunDistributed(cfg),
		})
	}
	return out
}

// AblationPruning compares level-0 clause pruning on and off (§3.1; the
// paper backported the optimization to its sequential baseline too).
func AblationPruning(f *cnf.Formula, opts Options) []AblationResult {
	var out []AblationResult
	for _, prune := range []bool{true, false} {
		cfg := ablationConfig(f, opts)
		so := solver.Fidelity2003()
		so.PruneLevel0 = prune
		cfg.Client.SolverOptions = &so
		out = append(out, AblationResult{
			Label:  fmt.Sprintf("prune-level0=%v", prune),
			Result: core.RunDistributed(cfg),
		})
	}
	return out
}

// AblationRanking compares NWS-forecast host ranking against effectively
// random placement (achieved by flattening every host to the same rank
// via a grid whose hosts are homogeneous in the scheduler's eyes).
func AblationRanking(f *cnf.Formula, opts Options) []AblationResult {
	ranked := ablationConfig(f, opts)
	flat := ablationConfig(f, opts)
	flatGrid := grid.TestbedGrADS(opts.Seed + 1)
	for _, h := range flatGrid.Hosts {
		h.Speed = 0.7 // scheduler sees identical hosts; placement ~arbitrary
		h.MemBytes = 512 << 20
	}
	flat.Grid = flatGrid
	return []AblationResult{
		{Label: "nws-ranked", Result: core.RunDistributed(ranked)},
		{Label: "flat-random", Result: core.RunDistributed(flat)},
	}
}

func ablationConfig(f *cnf.Formula, opts Options) core.RunnerConfig {
	return core.RunnerConfig{
		Grid:        grid.TestbedGrADS(opts.Seed + 1),
		Master:      core.MasterConfig{Formula: f},
		Client:      core.ClientConfig{Threads: opts.Threads, ShareMaxLen: Table1ShareLen},
		TimeoutVSec: ChallengeBudgetVSec * opts.scale(),
		Seed:        opts.Seed,
	}
}

// RenderAblation formats an ablation sweep.
func RenderAblation(name string, results []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ablation: %s\n", name)
	for _, r := range results {
		fmt.Fprintf(&b, "  %-22s %-9s vsec=%-9.1f clients=%-3d splits=%-4d shared=%d\n",
			r.Label, r.Result.Outcome, r.Result.VSec, r.Result.MaxClients,
			r.Result.State.Splits, r.Result.State.Shared)
	}
	return b.String()
}

// AblationEngine prices the two engine presets distributed, in virtual
// seconds: the paper's 2003 client, that client with learned-clause
// minimization alone, and the shipped engine (minimization plus
// LBD-ordered database reduction).
func AblationEngine(f *cnf.Formula, opts Options) []AblationResult {
	minimized := solver.Fidelity2003()
	minimized.MinimizeLearnts = true
	var out []AblationResult
	for _, arm := range []struct {
		label string
		so    solver.Options
	}{
		{"fidelity2003", solver.Fidelity2003()},
		{"+minimize", minimized},
		{"default", solver.DefaultOptions()},
	} {
		cfg := ablationConfig(f, opts)
		cfg.Client.SolverOptions = &arm.so
		out = append(out, AblationResult{Label: arm.label, Result: core.RunDistributed(cfg)})
	}
	return out
}

// StrategyResult is one split strategy's row in the strategy ablation:
// the DES outcome plus the lineage-tree quality aggregates reconstructed
// from the run's flight log.
type StrategyResult struct {
	Strategy string               `json:"strategy"`
	Result   core.SimResult       `json:"-"`
	Outcome  string               `json:"outcome"`
	VSec     float64              `json:"vsec"`
	Splits   int                  `json:"splits"`
	Lineage  trace.LineageMetrics `json:"lineage"`
}

// AblationSplitStrategy compares the split engines end to end on the DES:
// the paper's first-decision transform against k=2 dilemma splitting and
// its vetoed variant, each run with a flight recorder so the split tree's
// balance and kill-depth profile can be compared, not just wall-clock.
func AblationSplitStrategy(f *cnf.Formula, opts Options) []StrategyResult {
	var out []StrategyResult
	for _, strategy := range []string{"first-decision", "dilemma", "dilemma-veto"} {
		fl := trace.NewFlight(nil)
		cfg := ablationConfig(f, opts)
		cfg.Client.SplitStrategy = strategy
		cfg.Master.Flight = fl
		res := core.RunDistributed(cfg)
		out = append(out, StrategyResult{
			Strategy: strategy,
			Result:   res,
			Outcome:  res.Outcome.String(),
			VSec:     res.VSec,
			Splits:   res.State.Splits,
			Lineage:  trace.BuildLineage(fl.Events()).Metrics(),
		})
	}
	return out
}

// RenderStrategyAblation formats the strategy sweep with its lineage
// quality columns (the EXPERIMENTS.md per-strategy table).
func RenderStrategyAblation(results []StrategyResult) string {
	var b strings.Builder
	b.WriteString("| strategy | outcome | vsec | splits | leaves | max fanout | balance | kill depth (mean/max) |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range results {
		fmt.Fprintf(&b, "| %s | %s | %.1f | %d | %d | %d | %.2f | %.1f / %d |\n",
			r.Strategy, r.Outcome, r.VSec, r.Splits,
			r.Lineage.Leaves, r.Lineage.MaxFanout, r.Lineage.BalanceMean,
			r.Lineage.KillDepthMean, r.Lineage.KillDepthMax)
	}
	return b.String()
}

// WriteStrategyAblation writes the sweep as a JSON artifact (the CI smoke
// step uploads it so lineage regressions are diffable across runs).
func WriteStrategyAblation(path string, results []StrategyResult) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(fd)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}

// HybridThreads is the portfolio width of the portfolio-only and hybrid
// arms in the hybrid ablation (K=4 diversified workers per host).
const HybridThreads = 4

// HybridRows is the default instance set for the hybrid ablation: one
// representative per Table-1 family small enough to sweep three arms over.
var HybridRows = []string{"grid_10_20", "w10_75", "ezfact48_5", "homer12"}

// HybridResult is one (instance, arm) cell of the split-vs-portfolio-vs-
// hybrid ablation.
type HybridResult struct {
	Instance string  `json:"instance"`
	Arm      string  `json:"arm"` // split-only | portfolio-only | hybrid
	Threads  int     `json:"threads"`
	Outcome  string  `json:"outcome"`
	Status   string  `json:"status"`
	VSec     float64 `json:"vsec"`
	Clients  int     `json:"max_clients"`
	Splits   int     `json:"splits"`
	// Pool counters expose the intra-host exchange volume (zero on the
	// split-only arm by construction).
	PoolPublished int64 `json:"pool_published"`
	PoolDelivered int64 `json:"pool_delivered"`
}

// AblationHybrid runs the tentpole comparison on one instance: guiding-path
// splitting alone (K=1, whole testbed), in-host portfolio alone (K=4, one
// client, no splits), and the two-level hybrid (K=4 across the testbed).
func AblationHybrid(f *cnf.Formula, name string, opts Options) []HybridResult {
	arms := []struct {
		label      string
		threads    int
		maxClients int
	}{
		{"split-only", 1, 0},
		{"portfolio-only", HybridThreads, 1},
		{"hybrid", HybridThreads, 0},
	}
	var out []HybridResult
	for _, a := range arms {
		cfg := ablationConfig(f, opts)
		cfg.Client.Threads = a.threads
		cfg.MaxClients = a.maxClients
		res := core.RunDistributed(cfg)
		out = append(out, HybridResult{
			Instance:      name,
			Arm:           a.label,
			Threads:       res.Threads,
			Outcome:       res.Outcome.String(),
			Status:        res.Status.String(),
			VSec:          res.VSec,
			Clients:       res.MaxClients,
			Splits:        res.State.Splits,
			PoolPublished: res.PoolPublished,
			PoolDelivered: res.PoolDelivered,
		})
	}
	return out
}

// AblationHybridSuite sweeps AblationHybrid over a row set (HybridRows when
// names is nil), skipping unknown instance names.
func AblationHybridSuite(names []string, opts Options) []HybridResult {
	if len(names) == 0 {
		names = HybridRows
	}
	var out []HybridResult
	for _, name := range names {
		inst, ok := gen.ByName(name)
		if !ok {
			continue
		}
		out = append(out, AblationHybrid(inst.Build(), name, opts)...)
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%-30s hybrid ablation done", name))
		}
	}
	return out
}

// RenderHybridAblation formats the hybrid sweep as the EXPERIMENTS.md
// markdown table, one row per (instance, arm).
func RenderHybridAblation(results []HybridResult) string {
	var b strings.Builder
	b.WriteString("| instance | arm | K | outcome | vsec | clients | splits | pool pub/del |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range results {
		fmt.Fprintf(&b, "| %s | %s | %d | %s | %.1f | %d | %d | %d / %d |\n",
			r.Instance, r.Arm, r.Threads, r.Outcome, r.VSec, r.Clients,
			r.Splits, r.PoolPublished, r.PoolDelivered)
	}
	return b.String()
}

// WriteHybridAblation writes the sweep as a JSON artifact for the CI bench
// smoke job.
func WriteHybridAblation(path string, results []HybridResult) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(fd)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}
