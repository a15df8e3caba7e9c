package bench

import (
	"fmt"
	"strings"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/obs"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// OverheadResult is one instrumentation arm of the overhead ablation.
type OverheadResult struct {
	Label  string
	Status solver.Status
	Wall   time.Duration
	// Props is the run's propagation count — identical across arms
	// because instrumentation must never change the search.
	Props int64
}

// AblationInstrumentation reproduces the paper's §4.1 observation that
// full event instrumentation (EveryWare in the original, the
// trace.Recorder hook here) can cost a large fraction of solver
// throughput — which is why GridSAT's timed runs disabled it — while
// showing that the always-on obs counters the cluster view depends on
// are close to free. Three arms solve f sequentially with identical
// engine settings:
//
//	none      — bare solver, no instrumentation
//	counters  — solver.Counters (registry-backed atomics, batched BCP adds)
//	recorder  — trace.Recorder hook (per-event callback with payload)
//
// Each arm runs `rounds` times and keeps the fastest wall time, damping
// scheduler noise. The search itself is deterministic, so every arm must
// report the same status and propagation count.
func AblationInstrumentation(f *cnf.Formula, rounds int) []OverheadResult {
	if rounds < 1 {
		rounds = 1
	}
	arms := []struct {
		label string
		tune  func(*solver.Options)
	}{
		{"none", func(*solver.Options) {}},
		{"counters", func(o *solver.Options) {
			o.Counters = solver.NewCounters(obs.NewRegistry())
		}},
		{"recorder", func(o *solver.Options) {
			o.Instrument = trace.NewRecorder(4096).Hook()
		}},
	}
	out := make([]OverheadResult, 0, len(arms))
	for _, arm := range arms {
		best := OverheadResult{Label: arm.label}
		for i := 0; i < rounds; i++ {
			opts := solver.Fidelity2003()
			arm.tune(&opts)
			s := solver.New(f, opts)
			start := time.Now()
			res := s.Solve(solver.Limits{})
			wall := time.Since(start)
			best.Status = res.Status
			best.Props = s.Stats().Propagations
			if i == 0 || wall < best.Wall {
				best.Wall = wall
			}
		}
		out = append(out, best)
	}
	return out
}

// RenderOverhead formats the ablation with overhead percentages relative
// to the first (uninstrumented) arm.
func RenderOverhead(results []OverheadResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "ablation: instrumentation overhead")
	if len(results) == 0 {
		return b.String()
	}
	base := results[0].Wall.Seconds()
	for _, r := range results {
		pct := 0.0
		if base > 0 {
			pct = (r.Wall.Seconds() - base) / base * 100
		}
		fmt.Fprintf(&b, "  %-9s %-8s wall=%-12s props=%-10d overhead=%+.1f%%\n",
			r.Label, r.Status, r.Wall.Round(time.Microsecond), r.Props, pct)
	}
	return b.String()
}
