package solver

import (
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// impliedByBase checks c is a logical consequence of f: f ∧ ¬c is UNSAT.
func impliedByBase(f *cnf.Formula, c cnf.Clause) bool {
	g := f.Clone()
	for _, l := range c {
		g.AddClause(cnf.Clause{l.Not()})
	}
	r, _ := brute.Solve(g, 0)
	return r == brute.UNSAT
}

// TestExportedClausesGloballyValidUnderAssumptions is the paper's §3.2
// soundness requirement: a client solving under guiding-path assumptions
// must only share clauses implied by the base formula — clauses whose
// derivation used the assumptions are "only valid for the current client"
// and must stay local.
func TestExportedClausesGloballyValidUnderAssumptions(t *testing.T) {
	underEachPreset(t, func(t *testing.T, preset func() Options) {
		for seed := int64(0); seed < 12; seed++ {
			f := gen.RandomKSAT(14, 60, 3, seed)
			var exported []cnf.Clause
			opts := preset()
			opts.ShareMaxLen = 14
			opts.OnLearn = func(c cnf.Clause, _ int) { exported = append(exported, c) }
			s := New(f, opts)
			// Guiding-path assumptions, as a split recipient would get.
			if err := s.Assume(cnf.PosLit(0), cnf.NegLit(1), cnf.PosLit(2)); err != nil {
				t.Fatal(err)
			}
			if s.Status() != StatusUnknown {
				continue
			}
			s.Solve(Limits{})
			for _, c := range exported {
				if !impliedByBase(f, c) {
					t.Fatalf("seed %d: exported clause %v not implied by the base formula", seed, c)
				}
			}
		}
	})
}

// TestExportedClausesGloballyValidAfterSplit covers the donor side: after
// Split promotes the first decision into level 0, subsequent exports must
// still be implied by the base formula.
func TestExportedClausesGloballyValidAfterSplit(t *testing.T) {
	underEachPreset(t, func(t *testing.T, preset func() Options) {
		for seed := int64(20); seed < 30; seed++ {
			f := gen.RandomKSAT(14, 60, 3, seed)
			var exported []cnf.Clause
			opts := preset()
			opts.ShareMaxLen = 14
			opts.OnLearn = func(c cnf.Clause, _ int) { exported = append(exported, c) }
			s := New(f, opts)
			s.Solve(Limits{MaxConflicts: 3})
			if s.Status() != StatusUnknown || s.DecisionLevel() == 0 {
				continue
			}
			exported = nil // only audit post-split exports
			if _, err := s.Split(0, 0); err != nil {
				t.Fatal(err)
			}
			s.Solve(Limits{})
			for _, c := range exported {
				if !impliedByBase(f, c) {
					t.Fatalf("seed %d: post-split export %v not implied by base formula", seed, c)
				}
			}
		}
	})
}

// TestLocalImportNotReExported: clauses forwarded inside a split payload
// are valid only under the recipient's assumptions and must never be
// re-shared globally, even when short.
func TestLocalImportNotReExported(t *testing.T) {
	f := gen.RandomKSAT(14, 58, 3, 3)
	var exported []cnf.Clause
	opts := DefaultOptions()
	opts.ShareMaxLen = 14
	opts.OnLearn = func(c cnf.Clause, _ int) { exported = append(exported, c) }
	sub := &Subproblem{
		NumVars:     14,
		Assumptions: []cnf.Lit{cnf.PosLit(0)},
		// A clause that is NOT implied by f alone (it encodes part of the
		// guiding path); forwarding it is fine, re-exporting is not.
		Learnts: []cnf.Clause{{cnf.PosLit(0), cnf.PosLit(1)}},
	}
	s, err := NewFromSubproblem(f, sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Solve(Limits{})
	for _, c := range exported {
		if !impliedByBase(f, c) {
			t.Fatalf("re-exported local knowledge: %v", c)
		}
	}
}

// TestTaintClearedOnBacktrack: taint tracks the CURRENT assignment; a var
// implied via assumptions and later unassigned must be taint-free, so the
// sequential engine (no assumptions) never marks anything.
func TestNoTaintWithoutAssumptions(t *testing.T) {
	f := gen.Pigeonhole(7)
	var exported int
	opts := DefaultOptions()
	opts.ShareMaxLen = 20
	opts.OnLearn = func(_ cnf.Clause, _ int) { exported++ }
	s := New(f, opts)
	if r := s.Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("got %v", r.Status)
	}
	if s.numTainted != 0 {
		t.Fatalf("%d tainted vars on an assumption-free run", s.numTainted)
	}
	if exported == 0 {
		t.Fatal("assumption-free run exported nothing")
	}
	if int64(exported) != s.Stats().Exported {
		t.Fatalf("export count mismatch: %d vs %d", exported, s.Stats().Exported)
	}
}

// TestSubproblemStillSolvesWithLocalClauses: locality must not hurt
// completeness — split halves still reach the right answers.
func TestSubproblemAnswersUnchangedByLocality(t *testing.T) {
	underEachPreset(t, func(t *testing.T, preset func() Options) {
		for seed := int64(40); seed < 52; seed++ {
			f := gen.RandomKSAT(12, 51, 3, seed)
			want, _ := brute.Solve(f, 0)
			donor := New(f, preset())
			donor.Solve(Limits{MaxConflicts: 2})
			if donor.Status() != StatusUnknown || donor.DecisionLevel() == 0 {
				continue
			}
			sub, err := donor.Split(12, 0)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := NewFromSubproblem(f, sub, preset())
			if err != nil {
				t.Fatal(err)
			}
			sat := donor.Solve(Limits{}).Status == StatusSAT || rec.Solve(Limits{}).Status == StatusSAT
			if sat != (want == brute.SAT) {
				t.Fatalf("seed %d: halves say %v, brute %v", seed, sat, want)
			}
		}
	})
}

// TestMinimizationSoundness: with minimization on, answers match the
// oracle and every exported clause is still implied by the base formula
// (including under assumptions, where minimization may chase reasons into
// the guiding path and must surface those as dependencies).
func TestMinimizationSoundness(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		f := gen.RandomKSAT(14, 60, 3, seed)
		want, _ := brute.Solve(f, 0)

		var exported []cnf.Clause
		opts := DefaultOptions()
		opts.MinimizeLearnts = true
		opts.ShareMaxLen = 14
		opts.OnLearn = func(c cnf.Clause, _ int) { exported = append(exported, c) }
		s := New(f, opts)
		if seed%2 == 0 { // alternate: plain and assumption-carrying runs
			if err := s.Assume(cnf.PosLit(0), cnf.NegLit(1)); err != nil {
				t.Fatal(err)
			}
			if s.Status() != StatusUnknown {
				continue
			}
		}
		r := s.Solve(Limits{})
		if seed%2 != 0 { // unassumed runs must match the oracle
			if (r.Status == StatusSAT) != (want == brute.SAT) {
				t.Fatalf("seed %d: minimized run %v, brute %v", seed, r.Status, want)
			}
			if r.Status == StatusSAT {
				if err := f.Verify(r.Model); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, c := range exported {
			if !impliedByBase(f, c) {
				t.Fatalf("seed %d: minimized export %v not implied by base", seed, c)
			}
		}
	}
}

// TestMinimizationShortensClauses: on a structured instance, minimization
// must strictly reduce total learned literals while preserving the answer.
func TestMinimizationShortensClauses(t *testing.T) {
	f := gen.Pigeonhole(8)
	run := func(min bool) (int64, Status) {
		var total int64
		opts := DefaultOptions()
		opts.MinimizeLearnts = min
		opts.ShareMaxLen = 1 << 20
		opts.OnLearn = func(c cnf.Clause, _ int) { total += int64(len(c)) }
		s := New(f, opts)
		r := s.Solve(Limits{MaxConflicts: 2000})
		return total, r.Status
	}
	plainLits, _ := run(false)
	minLits, _ := run(true)
	if minLits >= plainLits {
		t.Errorf("minimization did not shorten clauses: %d vs %d literals", minLits, plainLits)
	}
	// Both configurations must still decide the instance correctly.
	opts := DefaultOptions()
	opts.MinimizeLearnts = true
	if r := New(f, opts).Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("minimized solver got %v", r.Status)
	}
}
