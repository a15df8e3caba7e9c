package solver

import (
	"testing"

	"gridsat/internal/cnf"
)

// figure1Formula reconstructs the paper's Figure-1 worked example: 9
// clauses over 14 variables where clause 9 is the unit (V14), clause 8 is
// (V10 ∨ ¬V13), and a level-6 decision V11 triggers an implication cascade
// whose FirstUIP is V5, yielding the learned clause
// ¬V10 ∨ ¬V7 ∨ V8 ∨ V9 ∨ ¬V5 and a non-chronological backjump to level 4
// (the level of ¬V9), after which V5 is implied false.
func figure1Formula() *cnf.Formula {
	f := cnf.NewFormula(14)
	f.Add(-11, 1)         // c1: V11 → V1
	f.Add(-1, 2)          // c2: V1 → V2
	f.Add(-11, -2, 5)     // c3: V11 ∧ V2 → V5  (all paths join at V5)
	f.Add(-5, -7, -10, 4) // c4: V5 ∧ V7 ∧ V10 → V4
	f.Add(-5, 8, 13)      // c5: V5 ∧ ¬V8 → V13
	f.Add(-4, 9, 3)       // c6: V4 ∧ ¬V9 → V3
	f.Add(-13, -3)        // c7: V13 → ¬V3 (conflict with c6)
	f.Add(10, -13)        // c8: the walkthrough's ¬V10 → ¬V13
	f.Add(14)             // c9: unit clause, V14 at level 0
	return f
}

// TestFigure1Walkthrough replays the start of §2.3: V14 is fixed at level 0
// by unit clause 9, and deciding V10=false at level 1 implies ¬V13 through
// clause 8 at the same level.
func TestFigure1Walkthrough(t *testing.T) {
	var checked bool
	opts := Fidelity2003()
	step := 0
	opts.DecisionOverride = func(s *Solver) cnf.Lit {
		switch step {
		case 0:
			step++
			// Before the first decision: V14 true at level 0.
			if s.Value(13) != cnf.True || s.LevelOf(13) != 0 {
				t.Errorf("V14 = %v at level %d, want true at 0", s.Value(13), s.LevelOf(13))
			}
			return cnf.NegLit(9) // decide V10 = false
		case 1:
			step++
			// After BCP of the level-1 decision: ¬V13 implied at level 1.
			if s.Value(12) != cnf.False || s.LevelOf(12) != 1 {
				t.Errorf("V13 = %v at level %d, want false at 1", s.Value(12), s.LevelOf(12))
			}
			checked = true
			return cnf.NoLit // fall back to VSIDS and finish the instance
		default:
			return cnf.NoLit
		}
	}
	s := New(figure1Formula(), opts)
	r := s.Solve(Limits{})
	if !checked {
		t.Fatal("walkthrough assertions never ran")
	}
	if r.Status != StatusSAT {
		t.Fatalf("figure-1 formula should be satisfiable, got %v", r.Status)
	}
}

// TestFigure1ConflictAnalysis replays the figure's conflict-analysis
// scenario: decisions V10, V7, ¬V8, ¬V9, V6, V11 (levels 1–6). The V11
// decision cascades into the V3 conflict; FirstUIP analysis must learn
// exactly {¬V10, ¬V7, V8, V9, ¬V5}, backjump to level 4, and imply V5=false
// there.
func TestFigure1ConflictAnalysis(t *testing.T) {
	script := []cnf.Lit{
		cnf.PosLit(9),  // L1: V10 = true
		cnf.PosLit(6),  // L2: V7 = true
		cnf.NegLit(7),  // L3: V8 = false
		cnf.NegLit(8),  // L4: V9 = false
		cnf.PosLit(5),  // L5: V6 = true (extra decision, not in the clause)
		cnf.PosLit(10), // L6: V11 = true → cascade → conflict
	}
	i := 0
	var learnt cnf.Clause
	opts := Fidelity2003()
	opts.OnLemma = func(c cnf.Clause) { learnt = c } // a root solver has no deps to append
	opts.DecisionOverride = func(s *Solver) cnf.Lit {
		if i < len(script) {
			l := script[i]
			i++
			return l
		}
		return cnf.NoLit
	}
	s := New(figure1Formula(), opts)
	r := s.Solve(Limits{MaxConflicts: 1})
	if r.Reason != ReasonConflictLimit {
		t.Fatalf("expected to pause after the scripted conflict, got %v/%v", r.Status, r.Reason)
	}
	if got := s.Stats().Conflicts; got != 1 {
		t.Fatalf("conflicts = %d, want 1", got)
	}

	// The learned clause of the paper: ~V10 + ~V7 + V8 + V9 + ~V5.
	want := map[cnf.Lit]bool{
		cnf.NegLit(9): true, // ¬V10
		cnf.NegLit(6): true, // ¬V7
		cnf.PosLit(7): true, // V8
		cnf.PosLit(8): true, // V9
		cnf.NegLit(4): true, // ¬V5 (the FirstUIP literal)
	}
	if len(learnt) != len(want) {
		t.Fatalf("learned clause %v, want literals %v", learnt, want)
	}
	for _, l := range learnt {
		if !want[l] {
			t.Fatalf("learned clause %v contains unexpected literal %v", learnt, l)
		}
	}
	if learnt[0] != cnf.NegLit(4) {
		t.Errorf("asserting literal = %v, want ¬V5", learnt[0])
	}

	// Non-chronological backjump to level 4 (the level of ¬V9), skipping
	// the V6 decision at level 5.
	if s.DecisionLevel() != 4 {
		t.Fatalf("decision level after backjump = %d, want 4", s.DecisionLevel())
	}
	// The FirstUIP variable V5 is implied false at the backjump level.
	if s.Value(4) != cnf.False {
		t.Fatalf("V5 = %v after backjump, want false", s.Value(4))
	}
	if s.LevelOf(4) != 4 {
		t.Fatalf("V5 implied at level %d, want 4", s.LevelOf(4))
	}
	// The level-5 decision V6 was undone by the backjump.
	if s.Value(5) != cnf.Undef {
		t.Fatalf("V6 = %v, want undef after non-chronological backjump", s.Value(5))
	}
	// Reason-side decisions V10, V7, ¬V8, ¬V9 are still assigned.
	for v, val := range map[cnf.Var]cnf.LBool{9: cnf.True, 6: cnf.True, 7: cnf.False, 8: cnf.False} {
		if s.Value(v) != val {
			t.Errorf("V%d = %v, want %v", v.DIMACS(), s.Value(v), val)
		}
	}
}

// TestFigure1FullSolve confirms the worked-example formula is satisfiable
// when search continues past the analyzed conflict.
func TestFigure1FullSolve(t *testing.T) {
	f := figure1Formula()
	s := New(f, Fidelity2003())
	r := s.Solve(Limits{})
	if r.Status != StatusSAT {
		t.Fatalf("got %v", r.Status)
	}
	if err := f.Verify(r.Model); err != nil {
		t.Fatal(err)
	}
}
