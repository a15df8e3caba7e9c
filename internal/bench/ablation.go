package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// Arm is one configuration of an ablation: a label and what it changes in
// the shared base run configuration (Table 1's distributed run at the
// challenge budget).
type Arm struct {
	Label string
	Set   func(*core.RunnerConfig)
}

// ArmRow is one (instance, arm) outcome of a sweep: the DES result and the
// split tree's quality aggregates read off the run's flight log.
type ArmRow struct {
	Instance string               `json:"instance"`
	Label    string               `json:"label"`
	Result   core.SimResult       `json:"result"`
	Lineage  trace.LineageMetrics `json:"lineage"`
}

// Sweep runs every arm over one formula, each on a fresh base
// configuration with a flight recorder attached. The DES does not charge
// the trace envelope, so recording changes no number of the run.
func Sweep(instance string, f *cnf.Formula, arms []Arm, opts Options) []ArmRow {
	out := make([]ArmRow, 0, len(arms))
	for _, a := range arms {
		cfg := table1Config(f, ChallengeBudgetVSec, opts)
		fl := trace.NewFlight(nil)
		cfg.Master.Flight = fl
		a.Set(&cfg)
		out = append(out, ArmRow{
			Instance: instance,
			Label:    a.Label,
			Result:   core.RunDistributed(cfg),
			Lineage:  trace.BuildLineage(fl.Events()).Metrics(),
		})
	}
	return out
}

// Ablation is a named list of arms, the instances it sweeps them over and
// the renderer of its rows (printed under "ablation: Title").
type Ablation struct {
	Name, Title string
	Rows        []string
	Arms        []Arm
	Render      func([]ArmRow) string
}

// Run sweeps the ablation's arms over its instances, or over opts.Rows
// when set; unknown instance names are skipped.
func (a Ablation) Run(opts Options) []ArmRow {
	names := a.Rows
	if len(opts.Rows) > 0 {
		names = opts.Rows
	}
	var out []ArmRow
	for _, name := range names {
		inst, ok := gen.ByName(name)
		if !ok {
			continue
		}
		out = append(out, Sweep(name, inst.Build(), a.Arms, opts)...)
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%-30s %s ablation done", name, a.Name))
		}
	}
	return out
}

// HybridThreads is the portfolio width of the portfolio-only and hybrid
// arms in the hybrid ablation (K=4 diversified workers per host).
const HybridThreads = 4

// HybridRows is the default instance set for the hybrid ablation: one
// representative per Table-1 family small enough to sweep three arms over.
var HybridRows = []string{"grid_10_20", "w10_75", "ezfact48_5", "homer12"}

// ablationRows is the instance of every single-instance ablation: a large
// both-solved row.
var ablationRows = []string{"homer12"}

// Ablations is every arm sweep `benchtab -ablation` runs, by Name.
var Ablations = []Ablation{
	// The paper's §3.2 choice: share only "short" clauses (it used 10 and
	// 3); 0 disables sharing entirely.
	{"sharelen", "clause-share length (paper §3.2)", ablationRows,
		[]Arm{shareLen(0), shareLen(3), shareLen(10), shareLen(50)}, RenderAblation},
	// The paper used 100 s (10 virtual seconds at our scale) to avoid the
	// ping-pong effect of splitting faster than subproblems transfer.
	{"splittimeout", "split timeout (paper §3.3, ping-pong guard)", ablationRows,
		[]Arm{splitTimeout(1), splitTimeout(5), splitTimeout(10), splitTimeout(40)}, RenderAblation},
	// §3.1; the paper backported the optimization to its sequential
	// baseline too.
	{"pruning", "level-0 clause pruning (paper §3.1)", ablationRows,
		[]Arm{prune(true), prune(false)}, RenderAblation},
	// Flat placement: every host looks the same to the scheduler, so
	// placement is arbitrary.
	{"ranking", "NWS scheduler ranking vs flat placement", ablationRows, []Arm{
		{"nws-ranked", func(*core.RunnerConfig) {}},
		{"flat-random", func(c *core.RunnerConfig) {
			for _, h := range c.Grid.Hosts {
				h.Speed = 0.7
				h.MemBytes = 512 << 20
			}
		}},
	}, RenderAblation},
	// The two engine presets priced in virtual seconds, with
	// learned-clause minimization alone between them.
	{"engine", "engine preset (Fidelity2003 vs the shipped DefaultOptions)", ablationRows, []Arm{
		engine("fidelity2003", solver.Fidelity2003),
		engine("+minimize", func() solver.Options {
			so := solver.Fidelity2003()
			so.MinimizeLearnts = true
			return so
		}),
		engine("default", solver.DefaultOptions),
	}, RenderAblation},
	// The paper's first-decision transform against k=2 dilemma splitting
	// and its vetoed variant: the split tree's balance and kill depth, not
	// just the virtual time.
	{"split", "split strategy (first-decision vs dilemma fan-out)", ablationRows,
		[]Arm{strategy("first-decision"), strategy("dilemma"), strategy("dilemma-veto")},
		RenderStrategyAblation},
	// Guiding-path splitting alone (K=1, whole testbed), an in-host
	// portfolio alone (K=4, one client, no splits), and the two-level
	// hybrid (K=4 across the testbed).
	{"hybrid", "split-only vs portfolio-only vs hybrid (splits × in-host portfolio)", HybridRows, []Arm{
		hybrid("split-only", 1, 0),
		hybrid("portfolio-only", HybridThreads, 1),
		hybrid("hybrid", HybridThreads, 0),
	}, RenderHybridAblation},
}

func shareLen(l int) Arm {
	return Arm{fmt.Sprintf("share-len=%d", l), func(c *core.RunnerConfig) {
		c.Client.ShareMaxLen = l
		if l == 0 {
			c.Client.ShareMaxLen = -1 // negative disables sharing entirely
		}
	}}
}

func splitTimeout(vsec float64) Arm {
	return Arm{fmt.Sprintf("split-timeout=%gvs", vsec), func(c *core.RunnerConfig) {
		c.Client.MinRunTime = time.Duration(vsec * float64(time.Second)) // virtual seconds
	}}
}

func prune(on bool) Arm {
	return engine(fmt.Sprintf("prune-level0=%v", on), func() solver.Options {
		so := solver.Fidelity2003()
		so.PruneLevel0 = on
		return so
	})
}

func engine(label string, preset func() solver.Options) Arm {
	return Arm{label, func(c *core.RunnerConfig) {
		so := preset()
		c.Client.SolverOptions = &so
	}}
}

func strategy(name string) Arm {
	return Arm{name, func(c *core.RunnerConfig) { c.Client.SplitStrategy = name }}
}

func hybrid(label string, threads, maxClients int) Arm {
	return Arm{label, func(c *core.RunnerConfig) {
		c.Client.Threads = threads
		c.MaxClients = maxClients
	}}
}

// RenderAblation formats a sweep one arm a line.
func RenderAblation(rows []ArmRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %-9s vsec=%-9.1f clients=%-3d splits=%-4d shared=%d\n",
			r.Label, r.Result.Outcome, r.Result.VSec, r.Result.MaxClients,
			r.Result.State.Splits, r.Result.State.Shared)
	}
	return b.String()
}

// RenderStrategyAblation formats a sweep with its lineage quality columns
// (the EXPERIMENTS.md per-strategy table).
func RenderStrategyAblation(rows []ArmRow) string {
	var b strings.Builder
	b.WriteString("| strategy | outcome | vsec | splits | leaves | max fanout | balance | kill depth (mean/max) |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %.1f | %d | %d | %d | %.2f | %.1f / %d |\n",
			r.Label, r.Result.Outcome, r.Result.VSec, r.Result.State.Splits,
			r.Lineage.Leaves, r.Lineage.MaxFanout, r.Lineage.BalanceMean,
			r.Lineage.KillDepthMean, r.Lineage.KillDepthMax)
	}
	return b.String()
}

// RenderHybridAblation formats a sweep as the EXPERIMENTS.md hybrid table,
// one row per (instance, arm); the pool counters show the intra-host
// exchange (zero on single-threaded arms).
func RenderHybridAblation(rows []ArmRow) string {
	var b strings.Builder
	b.WriteString("| instance | arm | K | outcome | vsec | clients | splits | pool pub/del |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %d | %s | %.1f | %d | %d | %d / %d |\n",
			r.Instance, r.Label, r.Result.Threads, r.Result.Outcome, r.Result.VSec,
			r.Result.MaxClients, r.Result.State.Splits, r.Result.Pool.Published, r.Result.Pool.Delivered)
	}
	return b.String()
}

// WriteAblation writes a sweep's rows as a JSON artifact (the CI smoke
// steps upload it so regressions are diffable across runs). Each row's
// final state goes without its per-client rows: they are most of a row's
// bytes, and no arm is compared by them.
func WriteAblation(path string, rows []ArmRow) error {
	rows = slices.Clone(rows)
	for i := range rows {
		rows[i].Result.State.Clients = nil
	}
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(fd)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}
