package solver

import (
	"sync"
	"testing"
	"time"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// TestImportFourCases exercises the paper's §3.2 merge rules directly.
func TestImportFourCases(t *testing.T) {
	// Base: unit clauses fix V1=true, V2=false at level 0.
	f := cnf.NewFormula(6)
	f.Add(1).Add(-2).Add(3, 4, 5, 6) // keep something undecided
	s := New(f, DefaultOptions())
	if confl := s.propagate(); confl != CRefUndef { // flush the level-0 units
		t.Fatal("unexpected conflict in setup")
	}

	// Case 4: clause satisfied at level 0 → discarded.
	if err := s.ImportClause(cnf.NewClause(1, 3)); err != nil {
		t.Fatal(err)
	}
	// Case 2: two unknowns → added to the database.
	if err := s.ImportClause(cnf.NewClause(3, 4)); err != nil {
		t.Fatal(err)
	}
	// Case 1: one unknown, rest false → implication at level 0.
	if err := s.ImportClause(cnf.NewClause(2, 5)); err != nil {
		t.Fatal(err)
	}
	if s.DecisionLevel() != 0 {
		t.Fatalf("expected level 0, got %d", s.DecisionLevel())
	}
	learntsBefore := len(s.learnts)
	if !s.mergeImports() {
		t.Fatal("merge reported conflict")
	}
	if got := len(s.learnts) - learntsBefore; got != 1 {
		t.Fatalf("learned DB grew by %d, want exactly 1 (case 2 only)", got)
	}
	if s.vals[cnf.PosLit(4)] != cnf.True { // V5 implied by case 1
		t.Fatalf("case-1 implication missing: V5 = %v", s.vals[cnf.PosLit(4)])
	}
	if s.Stats().Imported != 3 {
		t.Fatalf("Imported = %d, want 3", s.Stats().Imported)
	}

	// Case 3: all-false clause → subproblem UNSAT.
	if err := s.ImportClause(cnf.NewClause(-1, 2)); err != nil {
		t.Fatal(err)
	}
	if s.mergeImports() {
		t.Fatal("all-false import did not report conflict")
	}
}

func TestImportOutOfRangeRejected(t *testing.T) {
	s := New(cnf.NewFormula(2), DefaultOptions())
	if err := s.ImportClause(cnf.NewClause(5)); err == nil {
		t.Fatal("out-of-range import accepted")
	}
	if err := s.ImportClauses([]cnf.Clause{cnf.NewClause(1), cnf.NewClause(9)}); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
}

func TestImportTautologyDiscarded(t *testing.T) {
	f := cnf.NewFormula(3)
	f.Add(1, 2, 3)
	s := New(f, DefaultOptions())
	if err := s.ImportClause(cnf.NewClause(1, -1)); err != nil {
		t.Fatal(err)
	}
	before := len(s.learnts)
	if !s.mergeImports() {
		t.Fatal("tautology caused conflict")
	}
	if len(s.learnts) != before {
		t.Fatal("tautology added to database")
	}
	if s.Stats().Imported != 0 {
		t.Fatal("tautology counted as imported")
	}
}

// TestImportDuringSolveSpeedsConvergence feeds a solver the complement
// units that pin down the search; the solve must honor them after merge.
func TestImportHonoredInResult(t *testing.T) {
	f := gen.RandomKSAT(30, 100, 3, 11)
	ref := New(f, DefaultOptions())
	rRef := ref.Solve(Limits{})
	if rRef.Status != StatusSAT {
		t.Skip("instance not SAT; pick another seed")
	}
	// Import unit clauses forcing the reference model; solution must match.
	s := New(f, DefaultOptions())
	for v := 0; v < 5; v++ {
		var l cnf.Lit
		if rRef.Model.Value(cnf.Var(v)) == cnf.True {
			l = cnf.PosLit(cnf.Var(v))
		} else {
			l = cnf.NegLit(cnf.Var(v))
		}
		if err := s.ImportClause(cnf.Clause{l}); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Solve(Limits{})
	if r.Status != StatusSAT {
		t.Fatalf("got %v", r.Status)
	}
	for v := 0; v < 5; v++ {
		if r.Model.Value(cnf.Var(v)) != rRef.Model.Value(cnf.Var(v)) {
			t.Fatalf("imported unit on var %d not honored", v+1)
		}
	}
}

// TestImportSoundness checks that importing clauses learned by a second
// solver on the same formula never changes the answer.
func TestImportSoundness(t *testing.T) {
	underEachPreset(t, func(t *testing.T, preset func() Options) {
		for seed := int64(0); seed < 25; seed++ {
			f := gen.RandomKSAT(10, 43, 3, seed)
			want, _ := brute.Solve(f, 0)

			// Harvest clauses from an exporting solver.
			var mu sync.Mutex
			var shared []cnf.Clause
			expOpts := preset()
			expOpts.ShareMaxLen = 4
			expOpts.OnLearn = func(c cnf.Clause, _ int) {
				mu.Lock()
				shared = append(shared, c)
				mu.Unlock()
			}
			New(f, expOpts).Solve(Limits{})

			// Feed them to a fresh solver mid-flight.
			s := New(f, preset())
			s.Solve(Limits{MaxConflicts: 2})
			if err := s.ImportClauses(shared); err != nil {
				t.Fatal(err)
			}
			r := s.Solve(Limits{})
			if (r.Status == StatusSAT) != (want == brute.SAT) {
				t.Fatalf("seed %d: with imports got %v, brute says %v", seed, r.Status, want)
			}
			if r.Status == StatusSAT {
				if err := f.Verify(r.Model); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	})
}

// TestImportMergeForcedRestart: a solver deep in search with a waiting
// import buffer must eventually restart to merge (importMergeConflicts,
// shortened here).
func TestImportMergeForcedRestart(t *testing.T) {
	opts := DefaultOptions()
	opts.RestartBase = 0 // disable normal restarts
	f := gen.Pigeonhole(9)
	s := New(f, opts)
	s.importMergeAfter = 16
	s.Solve(Limits{MaxConflicts: 8}) // get into the search
	if err := s.ImportClause(cnf.NewClause(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	s.Solve(Limits{MaxConflicts: 200})
	if s.PendingImports() != 0 {
		t.Fatal("import buffer never merged despite forced-merge threshold")
	}
	if s.Stats().Imported != 1 {
		t.Fatalf("Imported = %d, want 1", s.Stats().Imported)
	}
}

func TestImportConcurrentWithSolve(t *testing.T) {
	f := gen.Pigeonhole(10)
	exp := New(f, func() Options {
		o := DefaultOptions()
		o.ShareMaxLen = 6
		return o
	}())
	var mu sync.Mutex
	var pool []cnf.Clause
	exp.opts.OnLearn = func(c cnf.Clause, _ int) {
		mu.Lock()
		pool = append(pool, c)
		mu.Unlock()
	}
	go exp.Solve(Limits{MaxConflicts: 3000})

	s := New(f, DefaultOptions())
	done := make(chan Result, 1)
	go func() { done <- s.Solve(Limits{}) }()
	deadline := time.After(20 * time.Second)
	for i := 0; i < 50; i++ {
		mu.Lock()
		cp := append([]cnf.Clause(nil), pool...)
		mu.Unlock()
		if err := s.ImportClauses(cp); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-done:
			if r.Status != StatusUNSAT {
				t.Fatalf("got %v", r.Status)
			}
			exp.Stop()
			return
		case <-deadline:
			t.Fatal("solve with concurrent imports did not finish")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	r := <-done
	if r.Status != StatusUNSAT {
		t.Fatalf("got %v", r.Status)
	}
	exp.Stop()
}
