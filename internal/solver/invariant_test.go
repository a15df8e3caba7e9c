package solver

import (
	"testing"
	"testing/quick"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// liveClauses returns every non-deleted clause reference (problem +
// learned).
func liveClauses(s *Solver) []ClauseRef {
	var out []ClauseRef
	for _, list := range [][]ClauseRef{s.clauses, s.learnts} {
		for _, r := range list {
			if !s.ca.Deleted(r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// checkInvariants validates the engine's core data-structure invariants at
// a quiescent point (between Solve calls):
//
//  1. trail assignments and the assignment array agree;
//  2. decision-level boundaries are monotone and levels consistent;
//  3. no live clause is falsified without the solver having noticed
//     (qhead caught up means no all-false clause may exist unless the
//     instance is already decided);
//  4. every literal watched by a live clause indexes a sane watcher list;
//  5. the watcher invariant: in a live clause that is not satisfied, the
//     two watched literals are non-false (a false watched literal is only
//     legal when some other literal of the clause is true — the blocker
//     case) once propagation has caught up;
//  6. the arena's live-byte counter equals the byte count obtained by
//     walking every live clause — exact accounting, no estimation.
func checkInvariants(t *testing.T, s *Solver) {
	t.Helper()
	// (1) + (2)
	seenVars := map[cnf.Var]bool{}
	for i, l := range s.trail {
		v := l.Var()
		if seenVars[v] {
			t.Fatalf("trail[%d]: variable %d assigned twice", i, v.DIMACS())
		}
		seenVars[v] = true
		if s.vals[l] != cnf.True || s.vals[l.Not()] != cnf.False {
			t.Fatalf("trail[%d]: literal %v not true (and its complement false) in vals", i, l)
		}
		lvl := 0
		for _, lim := range s.trailLim {
			if i >= lim {
				lvl++
			}
		}
		if int(s.level[v]) != lvl {
			t.Fatalf("trail[%d]: stored level %d, positional level %d", i, s.level[v], lvl)
		}
	}
	for v := 0; v < s.nVars; v++ {
		pos, neg := s.vals[cnf.PosLit(cnf.Var(v))], s.vals[cnf.NegLit(cnf.Var(v))]
		if (pos != cnf.Undef || neg != cnf.Undef) && !seenVars[cnf.Var(v)] {
			t.Fatalf("variable %d assigned but absent from trail", v+1)
		}
	}
	for i := 1; i < len(s.trailLim); i++ {
		if s.trailLim[i-1] > s.trailLim[i] {
			t.Fatalf("trailLim not monotone: %v", s.trailLim)
		}
	}
	// (3)
	if s.qhead == len(s.trail) && s.status == StatusUnknown {
		for _, r := range liveClauses(s) {
			falsified := true
			for i, n := 0, s.ca.Size(r); i < n; i++ {
				if s.vals[s.ca.Lit(r, i)] != cnf.False {
					falsified = false
					break
				}
			}
			if falsified {
				t.Fatalf("undetected falsified clause %v", s.clauseAt(r))
			}
		}
	}
	// (4) every live clause's two watch positions appear in watch lists.
	inList := func(l cnf.Lit, r ClauseRef) bool {
		for _, w := range s.watches[l.Not()] {
			if w.ref == r {
				return true
			}
		}
		return false
	}
	for _, r := range liveClauses(s) {
		if s.ca.Size(r) < 2 {
			continue
		}
		if !inList(s.ca.Lit(r, 0), r) || !inList(s.ca.Lit(r, 1), r) {
			t.Fatalf("clause %v lost a watcher", s.clauseAt(r))
		}
	}
	// (5)
	checkWatcherInvariant(t, s)
	// (6)
	checkExactAccounting(t, s)
}

// checkWatcherInvariant asserts the two-watched-literal discipline: once
// propagation has caught up, a live unsatisfied clause must be watched by
// two non-false literals. A false watched literal is legal only when the
// clause contains a true literal (the satisfied/blocker case).
func checkWatcherInvariant(t *testing.T, s *Solver) {
	t.Helper()
	if s.qhead != len(s.trail) || s.status != StatusUnknown {
		return
	}
	for _, r := range liveClauses(s) {
		n := s.ca.Size(r)
		if n < 2 {
			continue
		}
		satisfied := false
		for i := 0; i < n; i++ {
			if s.vals[s.ca.Lit(r, i)] == cnf.True {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		for j := 0; j < 2; j++ {
			if s.vals[s.ca.Lit(r, j)] == cnf.False {
				t.Fatalf("unsatisfied clause %v watched by false literal %v",
					s.clauseAt(r), s.ca.Lit(r, j))
			}
		}
	}
}

// checkExactAccounting recomputes the arena's live byte count from the
// clause lists and compares it with the maintained counter and with
// MemoryBytes — the exactness guarantee the scheduler relies on.
func checkExactAccounting(t *testing.T, s *Solver) {
	t.Helper()
	var words int64
	for _, r := range liveClauses(s) {
		words += int64(hdrWords + s.ca.Size(r))
	}
	if got := s.ca.LiveBytes(); got != words*4 {
		t.Fatalf("arena live bytes %d, walking the clause lists gives %d", got, words*4)
	}
	if got, want := s.MemoryBytes(), s.ArenaBytes()+int64(s.nVars)*40; got != want {
		t.Fatalf("MemoryBytes %d, arena+overhead %d", got, want)
	}
}

// TestInvariantsAcrossRandomRuns pauses random solves at random points and
// validates the structural invariants each time.
func TestInvariantsAcrossRandomRuns(t *testing.T) {
	prop := func(seedRaw uint16, budgetRaw uint8) bool {
		seed := int64(seedRaw)
		f := gen.RandomKSAT(25+int(seed%20), int(4.26*float64(25+seed%20)), 3, seed)
		s := New(f, DefaultOptions())
		for round := 0; round < 4; round++ {
			s.Solve(Limits{MaxConflicts: 1 + int64(budgetRaw)%64})
			checkInvariants(t, s)
			if s.Status() != StatusUnknown {
				break
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestInvariantsSurviveSplitAndImport validates invariants through the
// distributed operations: splits, local imports and shared imports.
func TestInvariantsSurviveSplitAndImport(t *testing.T) {
	f := gen.Pigeonhole(8)
	s := New(f, DefaultOptions())
	for round := 0; round < 6; round++ {
		s.Solve(Limits{MaxConflicts: 60})
		checkInvariants(t, s)
		if s.Status() != StatusUnknown {
			break
		}
		if s.DecisionLevel() > 0 && round%2 == 0 {
			if _, err := s.Split(10, 50); err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, s)
		}
		if err := s.ImportClauses([]cnf.Clause{cnf.NewClause(1, 2, 3)}); err != nil {
			t.Fatal(err)
		}
		if err := s.ImportClausesLocal([]cnf.Clause{cnf.NewClause(-4, 5)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInvariantsAfterGCAndImports forces arena garbage collections at
// quiescent points — after learned-clause shedding and after import
// merges — and checks the full invariant battery (including the watcher
// invariant) survives every compaction.
func TestInvariantsAfterGCAndImports(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		f := gen.RandomKSAT(30, 128, 3, seed)
		s := New(f, DefaultOptions())
		for round := 0; round < 5; round++ {
			s.Solve(Limits{MaxConflicts: 50})
			if s.Status() != StatusUnknown {
				break
			}
			// Shed half the learned DB, then compact unconditionally.
			s.ShedMemory()
			checkInvariants(t, s)
			// Queue imports; the next slice merges them at level 0.
			if err := s.ImportClauses([]cnf.Clause{
				cnf.NewClause(1, 2, 3), cnf.NewClause(-2, 4, 7),
			}); err != nil {
				t.Fatal(err)
			}
			s.Solve(Limits{MaxConflicts: 1})
			if s.Status() != StatusUnknown {
				break
			}
			s.garbageCollect()
			checkInvariants(t, s)
		}
	}
}

// TestInvariantsWithMinimization repeats the random-run check with
// clause minimization enabled.
func TestInvariantsWithMinimization(t *testing.T) {
	opts := DefaultOptions()
	opts.MinimizeLearnts = true
	for seed := int64(0); seed < 15; seed++ {
		f := gen.RandomKSAT(30, 128, 3, seed)
		s := New(f, opts)
		for round := 0; round < 3; round++ {
			s.Solve(Limits{MaxConflicts: 40})
			checkInvariants(t, s)
			if s.Status() != StatusUnknown {
				break
			}
		}
	}
}
