// Benchmarks regenerating every table and figure of the GridSAT paper.
//
// Each benchmark runs the same code path as cmd/benchtab but at reduced
// virtual-time budgets (bench.Options.Scale) so `go test -bench=.`
// finishes in minutes; the paper-faithful full regeneration is
// `benchtab -table 1` / `-table 2` (see EXPERIMENTS.md for its output).
package gridsat_test

import (
	"runtime"
	"testing"
	"time"

	"gridsat/internal/bench"
	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
	"gridsat/internal/proof"
	"gridsat/internal/simplify"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// ---- Table 1: zChaff vs GridSAT on the SAT2002 stand-ins ----

// benchTable1Rows regenerates a set of Table-1 rows once per iteration.
func benchTable1Rows(b *testing.B, rows []string, scale float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := bench.Table1(bench.Options{Rows: rows, Scale: scale, Seed: 1})
		if len(out) != len(rows) {
			b.Fatalf("expected %d rows, got %d", len(rows), len(out))
		}
	}
}

// BenchmarkTable1Small covers the small rows where the paper reports
// slowdowns (communication overhead dominates).
func BenchmarkTable1Small(b *testing.B) {
	benchTable1Rows(b, []string{"glassy-sat-sel_N210_n", "lisa20_1_a", "qg2-8", "pyhala-braun-sat-30-4-02"}, 1)
}

// BenchmarkTable1Medium covers representative medium rows.
func BenchmarkTable1Medium(b *testing.B) {
	benchTable1Rows(b, []string{"homer11", "avg-checker-5-34", "w10_75", "Urquhart-s3-b1"}, 1)
}

// BenchmarkTable1Large covers the large speedup rows (dp12s12 is the
// paper's 19.9x headline row).
func BenchmarkTable1Large(b *testing.B) {
	benchTable1Rows(b, []string{"dp12s12", "rand_net50-60-5", "homer12"}, 1)
}

// BenchmarkTable1GridSATOnly covers the section the baseline cannot
// finish: one TIME_OUT row and one MEM_OUT row.
func BenchmarkTable1GridSATOnly(b *testing.B) {
	benchTable1Rows(b, []string{"Mat26", "7pipe_bug"}, 1)
}

// BenchmarkTable1Unsolved exercises an unsolved row at a reduced budget
// (the full-budget run is exactly what makes these rows "unsolved", so
// the paper-faithful version belongs to benchtab, not the benchmark loop).
func BenchmarkTable1Unsolved(b *testing.B) {
	benchTable1Rows(b, []string{"comb1"}, 0.05)
}

// ---- Table 2: testbed + Blue Horizon ----

// BenchmarkTable2SolvedRow regenerates the rand_net70-25-5 row, which the
// paper solved on the interactive testbed before the batch job started.
func BenchmarkTable2SolvedRow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := bench.Table2(bench.Options{Rows: []string{"rand_net70-25-5"}, Scale: 0.25, Seed: 1})
		if len(out) != 1 {
			b.Fatal("missing row")
		}
	}
}

// BenchmarkTable2BatchJoin regenerates the batch-arrival machinery: a
// short queue wait so the Blue Horizon nodes join mid-run.
func BenchmarkTable2BatchJoin(b *testing.B) {
	f := gen.Pigeonhole(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := grid.TestbedTable2(2)
		g.AddBlueHorizon(bench.Table2BatchNodes)
		res := core.RunDistributed(core.RunnerConfig{
			Grid:        g,
			Master:      core.MasterConfig{Formula: f},
			Client:      core.ClientConfig{ShareMaxLen: bench.Table2ShareLen, MinRunTime: 5 * time.Second},
			TimeoutVSec: 100_000, Seed: 1, MaxClients: 4,
			Batch: &core.BatchPlan{Nodes: bench.Table2BatchNodes, WalltimeVSec: 100_000, MeanQueueWaitVSec: 20},
		})
		if res.Outcome != core.OutcomeSolved || res.BatchStartVSec <= 0 {
			b.Fatalf("batch scenario broke: %+v", res)
		}
	}
}

// ---- Figure 1: the worked conflict-analysis example ----

// BenchmarkFigure1ConflictAnalysis replays the paper's Figure-1 conflict:
// scripted decisions, the implication cascade, FirstUIP learning of
// (~V10 + ~V7 + V8 + V9 + ~V5), and the backjump to level 4.
func BenchmarkFigure1ConflictAnalysis(b *testing.B) {
	f := cnf.NewFormula(14)
	f.Add(-11, 1).Add(-1, 2).Add(-11, -2, 5).Add(-5, -7, -10, 4)
	f.Add(-5, 8, 13).Add(-4, 9, 3).Add(-13, -3).Add(10, -13).Add(14)
	script := []cnf.Lit{
		cnf.PosLit(9), cnf.PosLit(6), cnf.NegLit(7),
		cnf.NegLit(8), cnf.PosLit(5), cnf.PosLit(10),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := 0
		opts := solver.Fidelity2003()
		opts.DecisionOverride = func(*solver.Solver) cnf.Lit {
			if j < len(script) {
				l := script[j]
				j++
				return l
			}
			return cnf.NoLit
		}
		s := solver.New(f, opts)
		s.Solve(solver.Limits{MaxConflicts: 1})
		learnt := s.LastLearnt()
		if len(learnt) != 5 || s.DecisionLevel() != 4 {
			b.Fatalf("figure-1 replay drifted: learnt=%v level=%d", learnt, s.DecisionLevel())
		}
	}
}

// ---- Figure 2: the split stack transformation ----

// BenchmarkFigure2Split measures the guiding-path split: promote the
// donor's first decision level and emit the complementary subproblem.
func BenchmarkFigure2Split(b *testing.B) {
	f := gen.Pigeonhole(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := solver.New(f, solver.Fidelity2003())
		s.Solve(solver.Limits{MaxConflicts: 50})
		if s.DecisionLevel() == 0 {
			b.Fatal("nothing to split")
		}
		sub, err := s.Split(10, 1000)
		if err != nil {
			b.Fatal(err)
		}
		if len(sub.Assumptions) == 0 {
			b.Fatal("empty subproblem")
		}
	}
}

// ---- Figure 3: the five-message split protocol ----

// BenchmarkFigure3SplitProtocol runs the live master/client runtime over
// the in-process transport on an instance that forces at least one full
// split-request → assign → P2P payload → done exchange.
func BenchmarkFigure3SplitProtocol(b *testing.B) {
	f := gen.Pigeonhole(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.Solve(f, core.JobConfig{
			Clients: 3,
			Timeout: 2 * time.Minute,
			Client: core.ClientConfig{FreeMemBytes: 64 << 20, ShareMaxLen: 10,
				MinRunTime: time.Millisecond, SliceConflicts: 200},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != solver.StatusUNSAT || res.Splits == 0 {
			b.Fatalf("protocol run degenerate: %+v", res)
		}
	}
}

// ---- Ablations (design choices the paper calls out) ----

func ablationFormula() *cnf.Formula {
	inst, _ := gen.ByName("homer11")
	return inst.Build()
}

// BenchmarkAblationShareLen sweeps the clause-share length bound (§3.2).
func BenchmarkAblationShareLen(b *testing.B) {
	f := ablationFormula()
	for i := 0; i < b.N; i++ {
		out := bench.AblationShareLen(f, []int{0, 3, 10}, bench.Options{Seed: 1})
		if len(out) != 3 {
			b.Fatal("sweep incomplete")
		}
	}
}

// BenchmarkAblationSplitTimeout sweeps the split-timeout floor (§3.3).
func BenchmarkAblationSplitTimeout(b *testing.B) {
	f := ablationFormula()
	for i := 0; i < b.N; i++ {
		out := bench.AblationSplitTimeout(f, []float64{2, 10, 40}, bench.Options{Seed: 1})
		if len(out) != 3 {
			b.Fatal("sweep incomplete")
		}
	}
}

// BenchmarkAblationPruning toggles level-0 clause pruning (§3.1).
func BenchmarkAblationPruning(b *testing.B) {
	f := ablationFormula()
	for i := 0; i < b.N; i++ {
		out := bench.AblationPruning(f, bench.Options{Seed: 1})
		if len(out) != 2 {
			b.Fatal("sweep incomplete")
		}
	}
}

// BenchmarkAblationRanking compares NWS ranking with flat placement.
func BenchmarkAblationRanking(b *testing.B) {
	f := ablationFormula()
	for i := 0; i < b.N; i++ {
		out := bench.AblationRanking(f, bench.Options{Seed: 1})
		if len(out) != 2 {
			b.Fatal("sweep incomplete")
		}
	}
}

// ---- Engine microbenchmarks ----

// BenchmarkSolverPigeonhole measures raw engine throughput on PHP(9,8).
func BenchmarkSolverPigeonhole(b *testing.B) {
	f := gen.Pigeonhole(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := solver.New(f, solver.Fidelity2003())
		if r := s.Solve(solver.Limits{}); r.Status != solver.StatusUNSAT {
			b.Fatal("wrong answer")
		}
	}
}

// solverRegimes is one instance per regime of the gridbench seq-mix
// workload: random 3-SAT at the threshold (short clauses, scattered
// watches), pigeonhole (long clauses, conflict-heavy) and an adder miter
// (structured, long implication chains).
var solverRegimes = []struct {
	name string
	f    *cnf.Formula
}{
	{"random-n200", gen.RandomKSAT(200, 852, 3, 3)},
	{"php9", gen.Pigeonhole(9)},
	{"adder-miter-192", gen.AdderMiter(192)},
}

// BenchmarkSolverPropagation measures BCP throughput per regime: 2000
// conflicts of search from a fresh solver (construction off the clock),
// reported as props/s and ns/prop. props/op is the step count: it is
// pinned elsewhere (TestSearchIsStepIdentical) and must not move between
// two engines being compared, so a change here is a change in cost per
// step, not in the number of steps.
func BenchmarkSolverPropagation(b *testing.B) {
	for _, in := range solverRegimes {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			var props int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := solver.New(in.f, solver.Fidelity2003())
				b.StartTimer()
				s.Solve(solver.Limits{MaxConflicts: 2000})
				props += s.Stats().Propagations
			}
			b.ReportMetric(float64(props)/float64(b.N), "props/op")
			b.ReportMetric(float64(props)/b.Elapsed().Seconds(), "props/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(props), "ns/prop")
		})
	}
}

// BenchmarkSolverConflictPath measures analyze → (minimize) → backjump →
// record on the conflict-heavy regime, with a share callback installed so
// the escaping clone is on the path. allocs/conflict counts every heap
// allocation during search: with the conflict path on solver-owned scratch
// what remains is the exported clone (one per shared clause) plus the
// amortized growth of the arena, the learnt list and the watch lists.
func BenchmarkSolverConflictPath(b *testing.B) {
	for _, minimize := range []bool{false, true} {
		name := "firstuip"
		if minimize {
			name = "minimize"
		}
		b.Run(name, func(b *testing.B) {
			opts := solver.Fidelity2003()
			opts.MinimizeLearnts = minimize
			opts.ShareMaxLen = 10
			exported := 0
			opts.OnLearn = func(cnf.Clause, int) { exported++ }
			var conflicts int64
			var mallocs uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := solver.New(solverRegimes[1].f, opts)
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				s.Solve(solver.Limits{MaxConflicts: 4000})
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				conflicts += s.Stats().Conflicts
				b.StartTimer()
			}
			b.ReportMetric(float64(conflicts)/b.Elapsed().Seconds(), "conflicts/s")
			b.ReportMetric(float64(mallocs)/float64(conflicts), "allocs/conflict")
			b.ReportMetric(float64(exported)/float64(conflicts), "exports/conflict")
		})
	}
}

// BenchmarkDIMACSRoundtrip measures formula serialization.
func BenchmarkDIMACSRoundtrip(b *testing.B) {
	f := gen.RandomKSAT(300, 1278, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf writerCounter
		if err := cnf.WriteDIMACS(&buf, f); err != nil {
			b.Fatal(err)
		}
	}
}

type writerCounter struct{ n int }

func (w *writerCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkTransportInproc measures the messaging layer's throughput.
func BenchmarkTransportInproc(b *testing.B) {
	a, c := comm.NewPipe()
	msg := comm.ShareClauses{From: 1, Clauses: []cnf.Clause{cnf.NewClause(1, -2, 3)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentationOverhead reproduces the paper's §4.1 remark that
// instrumentation "reduces performance by as much as 50%": the same solve
// with and without the event hook installed.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	f := gen.Pigeonhole(8)
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := solver.New(f, solver.Fidelity2003())
			if r := s.Solve(solver.Limits{}); r.Status != solver.StatusUNSAT {
				b.Fatal("wrong answer")
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := trace.NewRecorder(1 << 14)
			opts := solver.Fidelity2003()
			opts.Instrument = rec.Hook()
			s := solver.New(f, opts)
			if r := s.Solve(solver.Limits{}); r.Status != solver.StatusUNSAT {
				b.Fatal("wrong answer")
			}
		}
	})
}

// BenchmarkAblationEngine compares the 2003-faithful engine against
// learned-clause minimization alone and against the shipped preset.
func BenchmarkAblationEngine(b *testing.B) {
	f := ablationFormula()
	for i := 0; i < b.N; i++ {
		out := bench.AblationEngine(f, bench.Options{Seed: 1})
		if len(out) != 3 {
			b.Fatal("sweep incomplete")
		}
	}
}

// BenchmarkPreprocess measures the SatELite-style preprocessor front end.
func BenchmarkPreprocess(b *testing.B) {
	f := gen.Pigeonhole(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := simplify.Simplify(f, simplify.DefaultOptions())
		if s.Unsat {
			b.Fatal("php9 is not refutable by preprocessing alone")
		}
	}
}

// BenchmarkProofCheck measures RUP certification of a full UNSAT run.
func BenchmarkProofCheck(b *testing.B) {
	f := gen.Pigeonhole(7)
	var lemmas []cnf.Clause
	opts := solver.Fidelity2003()
	opts.OnLemma = func(c cnf.Clause) { lemmas = append(lemmas, c.Clone()) }
	if r := solver.New(f, opts).Solve(solver.Limits{}); r.Status != solver.StatusUNSAT {
		b.Fatal("php7 must be UNSAT")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := proof.Check(f, lemmas); err != nil {
			b.Fatal(err)
		}
	}
}
