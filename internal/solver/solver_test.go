package solver

import (
	"sync"
	"testing"
	"time"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

func solve(t *testing.T, f *cnf.Formula, opts Options) Result {
	t.Helper()
	s := New(f, opts)
	r := s.Solve(Limits{MaxConflicts: 2_000_000})
	if r.Reason != ReasonSolved {
		t.Fatalf("solver did not finish: %v", r.Reason)
	}
	if r.Status == StatusSAT {
		if err := f.Verify(r.Model); err != nil {
			t.Fatalf("model rejected: %v", err)
		}
	}
	return r
}

func TestEmptyFormula(t *testing.T) {
	r := solve(t, cnf.NewFormula(0), DefaultOptions())
	if r.Status != StatusSAT {
		t.Fatalf("empty formula: %v", r.Status)
	}
}

func TestEmptyClause(t *testing.T) {
	f := cnf.NewFormula(1)
	f.AddClause(cnf.Clause{})
	if r := solve(t, f, DefaultOptions()); r.Status != StatusUNSAT {
		t.Fatalf("empty clause: %v", r.Status)
	}
}

func TestUnitContradiction(t *testing.T) {
	f := cnf.NewFormula(1)
	f.Add(1).Add(-1)
	if r := solve(t, f, DefaultOptions()); r.Status != StatusUNSAT {
		t.Fatalf("x & ~x: %v", r.Status)
	}
}

func TestTautologyDropped(t *testing.T) {
	f := cnf.NewFormula(2)
	f.Add(1, -1).Add(2)
	r := solve(t, f, DefaultOptions())
	if r.Status != StatusSAT {
		t.Fatalf("got %v", r.Status)
	}
	if r.Model.Value(1) != cnf.True {
		t.Fatal("unit clause not honored")
	}
}

func TestUnitChainLevels(t *testing.T) {
	f := cnf.NewFormula(4)
	f.Add(1).Add(-1, 2).Add(-2, 3).Add(-3, 4)
	s := New(f, DefaultOptions())
	r := s.Solve(Limits{})
	if r.Status != StatusSAT {
		t.Fatalf("got %v", r.Status)
	}
	for v := cnf.Var(0); v < 4; v++ {
		if s.Value(v) != cnf.True {
			t.Errorf("var %d = %v", v.DIMACS(), s.Value(v))
		}
		if s.LevelOf(v) != 0 {
			t.Errorf("var %d at level %d, want 0", v.DIMACS(), s.LevelOf(v))
		}
	}
}

func TestBinaryUNSATCore(t *testing.T) {
	f := cnf.NewFormula(2)
	f.Add(1, 2).Add(1, -2).Add(-1, 2).Add(-1, -2)
	if r := solve(t, f, DefaultOptions()); r.Status != StatusUNSAT {
		t.Fatalf("got %v", r.Status)
	}
}

func TestPigeonholeFamily(t *testing.T) {
	for holes := 2; holes <= 7; holes++ {
		if r := solve(t, gen.Pigeonhole(holes), DefaultOptions()); r.Status != StatusUNSAT {
			t.Fatalf("PHP(%d): %v", holes, r.Status)
		}
	}
}

func TestXORFamilies(t *testing.T) {
	if r := solve(t, gen.XORSystem(20, 20, true, 3), DefaultOptions()); r.Status != StatusSAT {
		t.Fatalf("consistent xor: %v", r.Status)
	}
	if r := solve(t, gen.XORSystem(20, 40, false, 3), DefaultOptions()); r.Status != StatusUNSAT {
		t.Fatalf("inconsistent xor: %v", r.Status)
	}
}

func TestMiters(t *testing.T) {
	if r := solve(t, gen.AdderMiter(5), DefaultOptions()); r.Status != StatusUNSAT {
		t.Fatalf("adder miter: %v", r.Status)
	}
	if r := solve(t, gen.AdderMiterBug(5), DefaultOptions()); r.Status != StatusSAT {
		t.Fatalf("buggy miter: %v", r.Status)
	}
}

func TestAgainstBruteForceRandom(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		nv := 6 + int(seed%8)
		nc := int(float64(nv) * 4.3)
		f := gen.RandomKSAT(nv, nc, 3, seed)
		want, _ := brute.Solve(f, 0)
		got := solve(t, f, DefaultOptions())
		if (want == brute.SAT) != (got.Status == StatusSAT) {
			t.Fatalf("seed %d: brute=%v cdcl=%v", seed, want, got.Status)
		}
	}
}

func TestAgainstBruteForceNoRestartsNoPrune(t *testing.T) {
	opts := Options{DecayInterval: 64} // restarts off, pruning off
	for seed := int64(100); seed < 130; seed++ {
		f := gen.RandomKSAT(8, 34, 3, seed)
		want, _ := brute.Solve(f, 0)
		got := solve(t, f, opts)
		if (want == brute.SAT) != (got.Status == StatusSAT) {
			t.Fatalf("seed %d: brute=%v cdcl=%v", seed, want, got.Status)
		}
	}
}

func TestDeterministicSameSeed(t *testing.T) {
	f := gen.RandomKSAT(50, 213, 3, 77)
	s1 := New(f, DefaultOptions())
	s2 := New(f, DefaultOptions())
	r1 := s1.Solve(Limits{})
	r2 := s2.Solve(Limits{})
	if r1.Status != r2.Status {
		t.Fatal("status differs across identical runs")
	}
	if s1.Stats() != s2.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", s1.Stats(), s2.Stats())
	}
}

func TestConflictLimit(t *testing.T) {
	s := New(gen.Pigeonhole(9), DefaultOptions())
	r := s.Solve(Limits{MaxConflicts: 5})
	if r.Reason != ReasonConflictLimit || r.Status != StatusUnknown {
		t.Fatalf("got %v/%v", r.Status, r.Reason)
	}
	if s.Stats().Conflicts < 5 {
		t.Fatalf("only %d conflicts recorded", s.Stats().Conflicts)
	}
	// Resume and finish.
	r = s.Solve(Limits{})
	if r.Status != StatusUNSAT {
		t.Fatalf("resume: %v", r.Status)
	}
}

func TestPropagationLimit(t *testing.T) {
	s := New(gen.Pigeonhole(9), DefaultOptions())
	r := s.Solve(Limits{MaxPropagations: 10})
	if r.Reason != ReasonPropLimit {
		t.Fatalf("got %v", r.Reason)
	}
}

func TestTimeLimit(t *testing.T) {
	s := New(gen.Pigeonhole(11), DefaultOptions())
	start := time.Now()
	r := s.Solve(Limits{MaxTime: 30 * time.Millisecond})
	if r.Reason != ReasonTimeout {
		t.Fatalf("got %v after %v", r.Reason, time.Since(start))
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout far too late")
	}
}

func TestMemoryLimit(t *testing.T) {
	s := New(gen.Pigeonhole(10), DefaultOptions())
	base := s.MemoryBytes()
	r := s.Solve(Limits{MaxMemoryBytes: base + 2048})
	if r.Reason != ReasonMemLimit {
		t.Fatalf("got %v", r.Reason)
	}
}

func TestStopFromOtherGoroutine(t *testing.T) {
	s := New(gen.Pigeonhole(11), DefaultOptions())
	done := make(chan Result, 1)
	go func() { done <- s.Solve(Limits{}) }()
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	select {
	case r := <-done:
		if r.Reason != ReasonStopped {
			t.Fatalf("got %v", r.Reason)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not interrupt Solve")
	}
	// Solver remains usable after a stop.
	r := s.Solve(Limits{MaxConflicts: 10})
	if r.Reason != ReasonConflictLimit && r.Reason != ReasonSolved {
		t.Fatalf("post-stop solve: %v", r.Reason)
	}
}

// A Stop that lands mid-Solve ends that call only: the search picks up at
// the step it left, so however often a run is interrupted — here from a
// second goroutine, as the live client's receive loop does — it reaches the
// verdict, the model and the very counters of the uninterrupted run.
func TestStopMidSolveThenResumeIsTheSameSearch(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
	}{
		{"unsat", gen.Pigeonhole(8)},
		{"sat", gen.PlantedKSAT(200, 840, 3, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := New(tc.f, DefaultOptions())
			want := ref.Solve(Limits{})

			s := New(tc.f, DefaultOptions())
			quit := make(chan struct{})
			var stopper sync.WaitGroup
			stopper.Add(1)
			go func() {
				defer stopper.Done()
				for {
					select {
					case <-quit:
						return
					default:
						s.Stop()
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
			var got Result
			stops := 0
			for {
				got = s.Solve(Limits{})
				if got.Status != StatusUnknown {
					break
				}
				if got.Reason != ReasonStopped {
					t.Fatalf("unlimited Solve returned %v", got.Reason)
				}
				stops++
			}
			close(quit)
			stopper.Wait()
			if got.Status != want.Status {
				t.Fatalf("interrupted %d times: verdict %v, uninterrupted %v", stops, got.Status, want.Status)
			}
			if got.Status == StatusSAT {
				if err := tc.f.Verify(got.Model); err != nil {
					t.Fatalf("model after %d stops rejected: %v", stops, err)
				}
			}
			if s.Stats() != ref.Stats() {
				t.Fatalf("interrupted %d times: stats %+v, uninterrupted %+v", stops, s.Stats(), ref.Stats())
			}
			t.Logf("%d stops over %d conflicts", stops, s.Stats().Conflicts)
		})
	}
}

// A Stop that finds no Solve running is not lost and not hoarded: the next
// Solve returns at once having done nothing, and the one after runs its
// full quantum, however many Stops piled up.
func TestStopBetweenSolvesCostsOneEmptySlice(t *testing.T) {
	s := New(gen.Pigeonhole(10), DefaultOptions())
	if r := s.Solve(Limits{MaxConflicts: 50}); r.Reason != ReasonConflictLimit {
		t.Fatalf("warm-up slice: %v", r.Reason)
	}
	before := s.Stats()
	s.Stop()
	s.Stop()
	if r := s.Solve(Limits{MaxConflicts: 50}); r.Reason != ReasonStopped || r.Status != StatusUnknown {
		t.Fatalf("slice after Stop: %v %v", r.Status, r.Reason)
	}
	if s.Stats() != before {
		t.Fatalf("the empty slice searched: %+v, before %+v", s.Stats(), before)
	}
	if r := s.Solve(Limits{MaxConflicts: 50}); r.Reason != ReasonConflictLimit {
		t.Fatalf("second slice after Stop: %v", r.Reason)
	}
	if got := s.Stats().Conflicts - before.Conflicts; got != 50 {
		t.Fatalf("second slice ran %d conflicts, want its full 50", got)
	}
}

func TestRestartsHappen(t *testing.T) {
	s := New(gen.Pigeonhole(9), DefaultOptions())
	if r := s.Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("got %v", r.Status)
	}
	if s.Stats().Restarts == 0 {
		t.Error("no restarts recorded on a multi-thousand-conflict run")
	}
}

func TestNoRestartsWhenDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.RestartBase = 0
	s := New(gen.Pigeonhole(8), opts)
	if r := s.Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("got %v", r.Status)
	}
	if s.Stats().Restarts != 0 {
		t.Error("restarts recorded despite RestartBase=0")
	}
}

func TestReduceDBTriggers(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxLearnts = 50
	s := New(gen.Pigeonhole(9), opts)
	if r := s.Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("got %v", r.Status)
	}
	if s.Stats().Deleted == 0 {
		t.Error("no learned clauses deleted despite tiny MaxLearnts")
	}
}

func TestSimplifyPrunesSatisfiedClauses(t *testing.T) {
	// Unit clause 1 satisfies (1,2) at level 0; pruning should remove it.
	f := cnf.NewFormula(3)
	f.Add(1).Add(1, 2).Add(2, 3)
	s := New(f, DefaultOptions())
	if r := s.Solve(Limits{}); r.Status != StatusSAT {
		t.Fatalf("got %v", r.Status)
	}
	if s.Stats().Simplified == 0 {
		t.Error("level-0 pruning removed nothing")
	}
}

func TestLearnedClauseExport(t *testing.T) {
	var exported []cnf.Clause
	opts := DefaultOptions()
	opts.ShareMaxLen = 10
	opts.OnLearn = func(c cnf.Clause, _ int) { exported = append(exported, c) }
	f := gen.Pigeonhole(7)
	s := New(f, opts)
	if r := s.Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("got %v", r.Status)
	}
	if len(exported) == 0 {
		t.Fatal("nothing exported")
	}
	if int64(len(exported)) != s.Stats().Exported {
		t.Fatalf("exported %d but stats say %d", len(exported), s.Stats().Exported)
	}
	for _, c := range exported {
		if len(c) > 10 {
			t.Fatalf("exported clause longer than ShareMaxLen: %v", c)
		}
	}
	// Soundness: each exported clause is implied by the formula — adding
	// its negation must be unsatisfiable.
	for _, c := range exported[:min(len(exported), 20)] {
		g := f.Clone()
		for _, l := range c {
			g.AddClause(cnf.Clause{l.Not()})
		}
		if r, _ := brute.Solve(g, 0); r != brute.UNSAT {
			t.Fatalf("exported clause %v not implied by formula", c)
		}
	}
}

func TestShareMaxLenZeroExportsNothing(t *testing.T) {
	called := false
	opts := DefaultOptions()
	opts.OnLearn = func(_ cnf.Clause, _ int) { called = true }
	s := New(gen.Pigeonhole(6), opts)
	s.Solve(Limits{})
	if called {
		t.Error("OnLearn fired with ShareMaxLen=0")
	}
}

func TestAssume(t *testing.T) {
	f := cnf.NewFormula(3)
	f.Add(1, 2).Add(-1, 3)
	s := New(f, DefaultOptions())
	if err := s.Assume(cnf.NegLit(1)); err != nil { // var2 = false
		t.Fatal(err)
	}
	r := s.Solve(Limits{})
	if r.Status != StatusSAT {
		t.Fatalf("got %v", r.Status)
	}
	if r.Model.Value(1) != cnf.False {
		t.Fatal("assumption not honored in model")
	}
}

func TestAssumeConflict(t *testing.T) {
	f := cnf.NewFormula(2)
	f.Add(1)
	s := New(f, DefaultOptions())
	if err := s.Assume(cnf.NegLit(0)); err != nil {
		t.Fatal(err)
	}
	if r := s.Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("conflicting assumption: %v", r.Status)
	}
}

func TestAssumeOutOfRange(t *testing.T) {
	s := New(cnf.NewFormula(2), DefaultOptions())
	if err := s.Assume(cnf.PosLit(5)); err == nil {
		t.Fatal("out-of-range assumption accepted")
	}
}

func TestAssumeAfterDecisionsRejected(t *testing.T) {
	f := gen.RandomKSAT(20, 60, 3, 1)
	s := New(f, DefaultOptions())
	s.Solve(Limits{MaxConflicts: 1})
	if s.DecisionLevel() > 0 {
		if err := s.Assume(cnf.PosLit(0)); err == nil {
			t.Fatal("Assume accepted above level 0")
		}
	}
}

func TestLevel0Lits(t *testing.T) {
	f := cnf.NewFormula(3)
	f.Add(1).Add(-1, 2)
	s := New(f, DefaultOptions())
	s.Solve(Limits{MaxConflicts: 1})
	lits := s.Level0Lits()
	if len(lits) < 2 {
		t.Fatalf("level-0 lits = %v", lits)
	}
	if lits[0] != cnf.PosLit(0) {
		t.Fatalf("first level-0 lit = %v", lits[0])
	}
}

func TestStatsProgress(t *testing.T) {
	s := New(gen.Pigeonhole(7), DefaultOptions())
	s.Solve(Limits{})
	st := s.Stats()
	if st.Decisions == 0 || st.Conflicts == 0 || st.Propagations == 0 ||
		st.Implications == 0 || st.Learned == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
}

func TestMemoryBytesGrows(t *testing.T) {
	s := New(gen.Pigeonhole(8), DefaultOptions())
	before := s.MemoryBytes()
	s.Solve(Limits{MaxConflicts: 200})
	if s.MemoryBytes() <= before {
		t.Error("memory estimate did not grow with learned clauses")
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusSAT.String() != "SAT" || StatusUNSAT.String() != "UNSAT" || StatusUnknown.String() != "UNKNOWN" {
		t.Error("Status strings wrong")
	}
	for r, want := range map[StopReason]string{
		ReasonSolved: "solved", ReasonConflictLimit: "conflict-limit",
		ReasonPropLimit: "propagation-limit", ReasonTimeout: "timeout",
		ReasonMemLimit: "memory-limit", ReasonStopped: "stopped",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
	if StopReason(99).String() == "" {
		t.Error("unknown reason should render")
	}
}

func TestLuby(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestPhaseSavingCorrectness(t *testing.T) {
	opts := DefaultOptions()
	opts.PhaseSaving = true
	for seed := int64(200); seed < 225; seed++ {
		f := gen.RandomKSAT(10, 43, 3, seed)
		want, _ := brute.Solve(f, 0)
		got := solve(t, f, opts)
		if (want == brute.SAT) != (got.Status == StatusSAT) {
			t.Fatalf("seed %d: phase-saving run %v, brute %v", seed, got.Status, want)
		}
	}
	// And on a structured UNSAT instance.
	if r := solve(t, gen.Pigeonhole(8), opts); r.Status != StatusUNSAT {
		t.Fatalf("php8 with phase saving: %v", r.Status)
	}
}

func TestPhaseSavingChangesTrajectory(t *testing.T) {
	f := gen.RandomKSAT(150, 639, 3, 11)
	base := New(f, DefaultOptions())
	base.Solve(Limits{})
	ps := New(f, func() Options {
		o := DefaultOptions()
		o.PhaseSaving = true
		return o
	}())
	ps.Solve(Limits{})
	if base.Stats() == ps.Stats() {
		t.Skip("identical trajectories; phase saving made no difference here")
	}
}
