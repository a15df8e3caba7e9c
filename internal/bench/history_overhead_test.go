package bench

import (
	"strings"
	"testing"

	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
)

// TestAblationHistorySamplerDeterminism checks the sampler + watchdog
// are purely observational: both arms must do identical simulated work,
// finish at the same virtual time, and a healthy run fires no alerts.
func TestAblationHistorySamplerDeterminism(t *testing.T) {
	res := AblationHistorySampler(gen.Pigeonhole(8), 1)
	if len(res) != 2 {
		t.Fatalf("%d arms", len(res))
	}
	off, on := res[0], res[1]
	if off.VSec != on.VSec {
		t.Errorf("virtual time diverged: %.3f vs %.3f — sampling changed the run", off.VSec, on.VSec)
	}
	if off.Props != on.Props {
		t.Errorf("props diverged: %d vs %d — sampling changed the search", off.Props, on.Props)
	}
	if off.Alerts != 0 || on.Alerts != 0 {
		t.Errorf("healthy run fired alerts: off=%d on=%d", off.Alerts, on.Alerts)
	}
	out := RenderHistoryOverhead(res)
	t.Logf("\n%s", out)
	for _, want := range []string{"sampler-off", "sampler-on", "overhead="} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func samplerArm(b *testing.B, wd *core.WatchdogConfig) {
	b.ReportAllocs()
	f := gen.Pigeonhole(8)
	for i := 0; i < b.N; i++ {
		cfg := core.RunnerConfig{
			Grid:              grid.TestbedGrADS(1),
			Master:            core.MasterConfig{Formula: f, Watchdog: wd},
			Client:            core.ClientConfig{ShareMaxLen: 10},
			TimeoutVSec:       10_000,
			PropsPerVSec:      1000,
			QuantumProps:      5000,
			MonitorPeriodVSec: 5,
			Seed:              1,
		}
		if res := core.RunDistributed(cfg); res.Outcome != core.OutcomeSolved {
			b.Fatal("benchmark instance did not decide")
		}
	}
}

// The two arms of the history-sampler ablation as Go benchmarks;
// EXPERIMENTS.md records measured numbers from
//
//	go test ./internal/bench/ -bench HistorySampler -benchtime 10x
func BenchmarkSimHistorySamplerOff(b *testing.B) {
	samplerArm(b, nil)
}

func BenchmarkSimHistorySamplerOn(b *testing.B) {
	samplerArm(b, &core.WatchdogConfig{})
}
