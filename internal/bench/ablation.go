package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// Arm is one configuration of an experiment: a label, what it changes in
// the experiment's base run configuration (nil: nothing), and how the run
// is made (nil: core.RunDistributed).
type Arm struct {
	Label string
	Set   func(*core.RunnerConfig, Options)
	Run   func(core.RunnerConfig) core.SimResult
}

// ArmRow is one (instance, arm) outcome of a sweep: the DES result and the
// split tree's quality aggregates read off the run's flight log.
type ArmRow struct {
	Instance string               `json:"instance"`
	Label    string               `json:"label"`
	Result   core.SimResult       `json:"result"`
	Lineage  trace.LineageMetrics `json:"lineage"`
}

// Experiment is one benchtab output: arms swept over instances, each on a
// base configuration Base builds for the instance, and the renderer of the
// rows.
type Experiment struct {
	Name string
	// Rows names the instances (gen.ByName). An experiment with none
	// replays its own workload: it runs once, on an instance named after it.
	Rows   []string
	Base   func(gen.Instance, Options) core.RunnerConfig
	Arms   []Arm
	Render func([]ArmRow, Options) string
}

// Instances resolves the experiment's own rows, or rows when given (in
// suite order, once each), to suite instances; it names every row the
// suite does not know.
func (e Experiment) Instances(rows []string) ([]gen.Instance, error) {
	switch {
	case len(rows) == 0 && e.Rows == nil:
		return []gen.Instance{{Name: e.Name}}, nil
	case len(rows) == 0:
		rows = e.Rows
	case e.Rows == nil:
		return nil, fmt.Errorf("%s replays its own workload and takes no rows", e.Name)
	default:
		suite := names(gen.Suite())
		rows = slices.Clone(rows)
		slices.SortStableFunc(rows, func(a, b string) int { return slices.Index(suite, a) - slices.Index(suite, b) })
		rows = slices.Compact(rows)
	}
	var out []gen.Instance
	var unknown []string
	for _, name := range rows {
		inst, ok := gen.ByName(name)
		if !ok {
			unknown = append(unknown, name)
		}
		out = append(out, inst)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown rows: %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// Sweep runs every arm of e over each instance, each on a fresh base
// configuration with a flight recorder attached. The DES does not charge
// the trace envelope, so recording changes no number of the run.
func Sweep(e Experiment, insts []gen.Instance, opts Options) []ArmRow {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	out := make([]ArmRow, 0, len(insts)*len(e.Arms))
	for _, inst := range insts {
		for _, a := range e.Arms {
			cfg := e.Base(inst, opts)
			fl := trace.NewFlight(nil)
			cfg.Master.Flight = fl
			if a.Set != nil {
				a.Set(&cfg, opts)
			}
			run := core.RunDistributed
			if a.Run != nil {
				run = a.Run
			}
			r := ArmRow{
				Instance: inst.Name,
				Label:    a.Label,
				Result:   run(cfg),
				Lineage:  trace.BuildLineage(fl.Events()).Metrics(),
			}
			out = append(out, r)
			if opts.Progress != nil {
				opts.Progress(fmt.Sprintf("%-30s %-16s %-9s vsec=%.1f clients=%d",
					inst.Name, a.Label, r.Result.Outcome, r.Result.VSec, r.Result.MaxClients))
			}
		}
	}
	return out
}

// Lookup is the experiment called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
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

// Experiments is every benchtab output, by Name: the paper's two tables
// and its Blue-Horizon-only rerun (-table 1|2, -bhonly), then the
// ablations (-ablation NAME).
var Experiments = []Experiment{
	{"table1", names(gen.Suite()), table1Base, []Arm{
		{Label: "zchaff", Set: zchaffBaseline, Run: core.RunSequential},
		{Label: "gridsat"},
	}, renderTable("Table-1", RenderTable1, Shape)},
	{"table2", names(gen.Table2Rows()), table2Base, []Arm{{Label: "gridsat"}},
		renderTable("Table-2", RenderTable2, Shape2)},
	{"bhonly", []string{"par32-1-c"}, blueHorizonBase, []Arm{{Label: "blue-horizon"}}, renderBlueHorizon},
	// The paper's §3.2 choice: share only "short" clauses (it used 10 and
	// 3); 0 disables sharing entirely.
	{"sharelen", ablationRows, challengeBase,
		[]Arm{shareLen(0), shareLen(3), shareLen(10), shareLen(50)},
		titled("clause-share length (paper §3.2)", RenderAblation)},
	// The paper used 100 s (10 virtual seconds at our scale) to avoid the
	// ping-pong effect of splitting faster than subproblems transfer.
	{"splittimeout", ablationRows, challengeBase,
		[]Arm{splitTimeout(1), splitTimeout(5), splitTimeout(10), splitTimeout(40)},
		titled("split timeout (paper §3.3, ping-pong guard)", RenderAblation)},
	// §3.1; the paper backported the optimization to its sequential
	// baseline too.
	{"pruning", ablationRows, challengeBase, []Arm{prune(true), prune(false)},
		titled("level-0 clause pruning (paper §3.1)", RenderAblation)},
	// Flat placement: every host looks the same to the scheduler, so
	// placement is arbitrary.
	{"ranking", ablationRows, challengeBase, []Arm{
		{Label: "nws-ranked"},
		{Label: "flat-random", Set: func(c *core.RunnerConfig, _ Options) {
			for _, h := range c.Grid.Hosts {
				h.Speed = 0.7
				h.MemBytes = 512 << 20
			}
		}},
	}, titled("NWS scheduler ranking vs flat placement", RenderAblation)},
	// The two engine presets priced in virtual seconds, with
	// learned-clause minimization alone between them.
	{"engine", ablationRows, challengeBase, []Arm{
		engine("fidelity2003", solver.Fidelity2003),
		engine("+minimize", func() solver.Options {
			so := solver.Fidelity2003()
			so.MinimizeLearnts = true
			return so
		}),
		engine("default", solver.DefaultOptions),
	}, titled("engine preset (Fidelity2003 vs the shipped DefaultOptions)", RenderAblation)},
	// The paper's first-decision transform against k=2 dilemma splitting
	// and its vetoed variant: the split tree's balance and kill depth, not
	// just the virtual time.
	{"split", ablationRows, challengeBase,
		[]Arm{strategy("first-decision"), strategy("dilemma"), strategy("dilemma-veto")},
		titled("split strategy (first-decision vs dilemma fan-out)", RenderStrategyAblation)},
	// Guiding-path splitting alone (K=1, whole testbed), an in-host
	// portfolio alone (K=4, one client, no splits), and the two-level
	// hybrid (K=4 across the testbed).
	{"hybrid", HybridRows, challengeBase, []Arm{
		hybrid("split-only", 1, 0),
		hybrid("portfolio-only", HybridThreads, 1),
		hybrid("hybrid", HybridThreads, 0),
	}, titled("split-only vs portfolio-only vs hybrid (splits × in-host portfolio)", RenderHybridAblation)},
	// A Poisson job trace on a small cluster: the one scheduling rule under
	// contention.
	{"sched", nil, schedBase, []Arm{{Label: "priority-order"}}, renderSched},
}

func names(insts []gen.Instance) []string {
	out := make([]string, len(insts))
	for i, inst := range insts {
		out[i] = inst.Name
	}
	return out
}

// challengeBase is every ablation's base run: Table 1's distributed run at
// the challenge budget.
func challengeBase(inst gen.Instance, o Options) core.RunnerConfig {
	return table1Config(inst.Build(), ChallengeBudgetVSec, o)
}

// titled prints an ablation's rows under "ablation: title".
func titled(title string, render func([]ArmRow) string) func([]ArmRow, Options) string {
	return func(rows []ArmRow, _ Options) string { return "ablation: " + title + "\n" + render(rows) }
}

func shareLen(l int) Arm {
	return Arm{Label: fmt.Sprintf("share-len=%d", l), Set: func(c *core.RunnerConfig, _ Options) {
		c.Client.ShareMaxLen = l
		if l == 0 {
			c.Client.ShareMaxLen = -1 // negative disables sharing entirely
		}
	}}
}

func splitTimeout(vsec float64) Arm {
	return Arm{Label: fmt.Sprintf("split-timeout=%gvs", vsec), Set: func(c *core.RunnerConfig, _ Options) {
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
	return Arm{Label: label, Set: func(c *core.RunnerConfig, _ Options) {
		so := preset()
		c.Client.SolverOptions = &so
	}}
}

func strategy(name string) Arm {
	return Arm{Label: name, Set: func(c *core.RunnerConfig, _ Options) { c.Client.SplitStrategy = name }}
}

func hybrid(label string, threads, maxClients int) Arm {
	return Arm{Label: label, Set: func(c *core.RunnerConfig, _ Options) {
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
