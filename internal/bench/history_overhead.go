package bench

import (
	"fmt"
	"strings"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/core"
	"gridsat/internal/grid"
)

// HistoryOverheadResult is one arm of the history-sampler ablation.
type HistoryOverheadResult struct {
	Label string
	// Wall is the real time the simulated run took to execute.
	Wall time.Duration
	// VSec and Props are identical across arms: the sampler and watchdog
	// are observers and must never perturb the simulation.
	VSec  float64
	Props int64
	// Alerts is the watchdog alert count (0 on a healthy run).
	Alerts int
}

// AblationHistorySampler measures what the service-observability stack —
// the per-tick history sampling plus the anomaly-watchdog evaluation —
// costs a run. The criterion is <2% wall time: the sampler touches a
// handful of series per monitor tick, and ticks are orders of magnitude
// rarer than solver events, so it can stay always-on in `gridsat serve`
// (unlike the paper's §4.1 EveryWare event instrumentation, which taxed
// the hot path enough to be disabled for timed runs). Two arms run the
// identical distributed DES config at a deliberately aggressive monitor
// cadence:
//
//	sampler-off — Watchdog nil: monitor ticks sample the timeline only
//	sampler-on  — watchdog armed: every tick also feeds the history
//	              store and evaluates all four anomaly rules
//
// Each arm runs `rounds` times keeping the fastest wall time; both must
// report identical virtual time and propagation counts.
func AblationHistorySampler(f *cnf.Formula, rounds int) []HistoryOverheadResult {
	if rounds < 1 {
		rounds = 1
	}
	arms := []struct {
		label string
		wd    *core.WatchdogConfig
	}{
		{"sampler-off", nil},
		{"sampler-on", &core.WatchdogConfig{}},
	}
	out := make([]HistoryOverheadResult, 0, len(arms))
	for _, arm := range arms {
		best := HistoryOverheadResult{Label: arm.label}
		for i := 0; i < rounds; i++ {
			cfg := core.RunnerConfig{
				Grid:              grid.TestbedGrADS(1),
				Master:            core.MasterConfig{Formula: f, Watchdog: arm.wd},
				Client:            core.ClientConfig{ShareMaxLen: 10},
				TimeoutVSec:       10_000,
				PropsPerVSec:      1000,
				QuantumProps:      5000,
				MonitorPeriodVSec: 5,
				Seed:              1,
			}
			start := time.Now()
			res := core.RunDistributed(cfg)
			wall := time.Since(start)
			best.VSec = res.VSec
			best.Props = res.TotalProps
			best.Alerts = len(res.Alerts)
			if i == 0 || wall < best.Wall {
				best.Wall = wall
			}
		}
		out = append(out, best)
	}
	return out
}

// RenderHistoryOverhead formats the ablation with the overhead
// percentage relative to the first (sampler-off) arm.
func RenderHistoryOverhead(results []HistoryOverheadResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "ablation: history-sampler + watchdog overhead (distributed DES run)")
	if len(results) == 0 {
		return b.String()
	}
	base := results[0].Wall.Seconds()
	for _, r := range results {
		pct := 0.0
		if base > 0 {
			pct = (r.Wall.Seconds() - base) / base * 100
		}
		fmt.Fprintf(&b, "  %-12s wall=%-12s vsec=%-8.1f props=%-10d alerts=%-3d overhead=%+.1f%%\n",
			r.Label, r.Wall.Round(time.Microsecond), r.VSec, r.Props, r.Alerts, pct)
	}
	return b.String()
}
