package bench

import (
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
	"gridsat/internal/obs"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// TestAblationInstrumentationDeterminism checks instrumentation is purely
// observational: all three arms must reach the same verdict with the same
// amount of search work.
func TestAblationInstrumentationDeterminism(t *testing.T) {
	res := AblationInstrumentation(gen.Pigeonhole(7), 1)
	if len(res) != 3 {
		t.Fatalf("%d arms", len(res))
	}
	for _, r := range res[1:] {
		if r.Status != res[0].Status {
			t.Errorf("%s status %v != %v", r.Label, r.Status, res[0].Status)
		}
		if r.Props != res[0].Props {
			t.Errorf("%s props %d != %d: instrumentation changed the search",
				r.Label, r.Props, res[0].Props)
		}
	}
	out := RenderOverhead(res)
	t.Logf("\n%s", out)
	for _, want := range []string{"none", "counters", "recorder", "overhead="} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func solveArm(b *testing.B, f *cnf.Formula, tune func(*solver.Options)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := solver.Fidelity2003()
		tune(&opts)
		s := solver.New(f, opts)
		if res := s.Solve(solver.Limits{}); res.Status == solver.StatusUnknown {
			b.Fatal("benchmark instance did not decide")
		}
	}
}

// The three arms of the instrumentation-overhead ablation as Go
// benchmarks; EXPERIMENTS.md records measured numbers from
//
//	go test ./internal/bench/ -bench Instrumentation -benchtime 5x
func BenchmarkSolveNoInstrumentation(b *testing.B) {
	solveArm(b, gen.Pigeonhole(8), func(*solver.Options) {})
}

func BenchmarkSolveObsCounters(b *testing.B) {
	c := solver.NewCounters(obs.NewRegistry())
	solveArm(b, gen.Pigeonhole(8), func(o *solver.Options) { o.Counters = c })
}

func BenchmarkSolveTraceRecorder(b *testing.B) {
	rec := trace.NewRecorder(4096)
	solveArm(b, gen.Pigeonhole(8), func(o *solver.Options) { o.Instrument = rec.Hook() })
}
