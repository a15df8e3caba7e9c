package solver

import (
	"math/rand"
	"slices"
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// TestFigure2Split replays the paper's Figure-2 stack transformation on the
// worked example: after the level-1 decision V10=false (implying ¬V13), a
// split must (a) hand the recipient the level-0 assignments plus the
// complement V10 of the first decision, and (b) promote the donor's level 1
// into level 0, after which level-0 pruning drops the now-permanently
// satisfied clauses 8 and 9 on the donor, and the recipient's satisfied
// clauses are pruned on its side.
func TestFigure2Split(t *testing.T) {
	f := figure1Formula()
	step := 0
	opts := Fidelity2003()
	opts.DecisionOverride = func(s *Solver) cnf.Lit {
		if step == 0 {
			step++
			return cnf.NegLit(9) // V10 = false at level 1
		}
		return cnf.PosLit(0) // park: keep the solver pausable
	}
	donor := New(f, opts)
	// Run just far enough to make the decision and propagate it.
	donor.Solve(Limits{MaxPropagations: 3})
	levelBefore := donor.DecisionLevel()
	if levelBefore < 1 {
		t.Fatalf("setup failed: decision level %d", levelBefore)
	}

	sub, err := donor.Split(10, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Recipient assumptions: level-0 assignment V14 plus complement V10.
	wantAssume := map[cnf.Lit]bool{cnf.PosLit(13): true, cnf.PosLit(9): true}
	if len(sub.Assumptions) != len(wantAssume) {
		t.Fatalf("assumptions %v, want V14 and V10", sub.Assumptions)
	}
	for _, l := range sub.Assumptions {
		if !wantAssume[l] {
			t.Fatalf("unexpected assumption %v", l)
		}
	}

	// Donor promoted its first decision level to level 0, keeping its
	// position in the higher levels (Figure 2 shifts them down by one).
	if donor.DecisionLevel() != levelBefore-1 {
		t.Fatalf("donor decision level = %d, want %d", donor.DecisionLevel(), levelBefore-1)
	}
	if donor.Value(9) != cnf.False || donor.LevelOf(9) != 0 {
		t.Fatalf("V10 = %v at level %d on donor, want false at 0", donor.Value(9), donor.LevelOf(9))
	}
	if donor.Value(12) != cnf.False || donor.LevelOf(12) != 0 {
		t.Fatalf("V13 = %v at level %d on donor, want false at 0", donor.Value(12), donor.LevelOf(12))
	}

	// Figure 2: client A (donor) can remove clauses 8 and 9 because ¬V13
	// and V14 are now permanently true. Clause 9 (unit) was never stored as
	// a clause; clause 8 must be pruned by the next level-0 simplify pass
	// (the donor keeps its position above level 0, so return there first).
	donor.backtrackTo(0)
	if confl := donor.propagate(); confl != CRefUndef {
		t.Fatal("unexpected conflict while settling at level 0")
	}
	before := len(donor.clauses)
	donor.simplify()
	pruned := before - len(donor.clauses)
	if pruned < 1 {
		t.Fatalf("donor pruned %d clauses after split, want >= 1 (clause 8)", pruned)
	}

	// Recipient side: clause 8 (V10 ∨ ¬V13) is satisfied by assumption V10
	// and gets pruned there too.
	rec, err := NewFromSubproblem(f, sub, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := rec.Solve(Limits{})
	if r.Status != StatusSAT {
		t.Fatalf("recipient status %v", r.Status)
	}
	if r.Model.Value(9) != cnf.True {
		t.Fatal("recipient model violates its guiding assumption V10")
	}
	if rec.Stats().Simplified == 0 {
		t.Error("recipient pruned nothing despite satisfied clauses")
	}
}

func TestSplitAtLevel0Fails(t *testing.T) {
	s := New(gen.RandomKSAT(10, 20, 3, 1), DefaultOptions())
	if _, err := s.Split(0, 0); err != ErrNothingToSplit {
		t.Fatalf("got %v, want ErrNothingToSplit", err)
	}
}

func TestSplitOnDecidedProblemFails(t *testing.T) {
	f := cnf.NewFormula(1)
	f.Add(1)
	s := New(f, DefaultOptions())
	s.Solve(Limits{})
	if _, err := s.Split(0, 0); err == nil {
		t.Fatal("split of a decided problem accepted")
	}
}

// TestSplitPartitionsSearchSpace is the core soundness property of the
// Figure-2 transformation: for random formulas, the original instance is
// satisfiable iff the donor half or the recipient's half is.
func TestSplitPartitionsSearchSpace(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		f := gen.RandomKSAT(10, 42, 3, seed)
		want, _ := brute.Solve(f, 0)

		opts := DefaultOptions()
		donor := New(f, opts)
		donor.Solve(Limits{MaxConflicts: 2}) // run a little, then split
		if donor.Status() != StatusUnknown || donor.DecisionLevel() == 0 {
			// Solved before a split was possible; nothing to check here.
			continue
		}
		sub, err := donor.Split(10, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rDonor := donor.Solve(Limits{})
		rec, err := NewFromSubproblem(f, sub, DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rRec := rec.Solve(Limits{})

		gotSAT := rDonor.Status == StatusSAT || rRec.Status == StatusSAT
		if gotSAT != (want == brute.SAT) {
			t.Fatalf("seed %d: split halves say SAT=%v, brute says %v (donor=%v rec=%v)",
				seed, gotSAT, want, rDonor.Status, rRec.Status)
		}
		// Any model from either half must satisfy the original formula.
		if rDonor.Status == StatusSAT {
			if err := f.Verify(rDonor.Model); err != nil {
				t.Fatalf("seed %d: donor model invalid: %v", seed, err)
			}
		}
		if rRec.Status == StatusSAT {
			if err := f.Verify(rRec.Model); err != nil {
				t.Fatalf("seed %d: recipient model invalid: %v", seed, err)
			}
		}
	}
}

// TestSplitHalvesAreDisjoint verifies the two halves disagree on the split
// variable, so no assignment is explored twice.
func TestSplitHalvesAreDisjoint(t *testing.T) {
	f := gen.Pigeonhole(8)
	donor := New(f, DefaultOptions())
	donor.Solve(Limits{MaxConflicts: 5})
	if donor.Status() != StatusUnknown || donor.DecisionLevel() == 0 {
		t.Skip("solved too fast to split")
	}
	sub, err := donor.Split(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	splitLit := sub.Assumptions[len(sub.Assumptions)-1]
	if donor.Value(splitLit.Var()) == cnf.Undef {
		t.Fatal("donor does not fix the split variable")
	}
	if donor.vals[splitLit] != cnf.False {
		t.Fatal("recipient's split literal is not the complement of the donor's")
	}
	if donor.LevelOf(splitLit.Var()) != 0 {
		t.Fatal("split variable not permanent on donor")
	}
}

func TestSplitForwardsShortLearnts(t *testing.T) {
	f := gen.Pigeonhole(8)
	donor := New(f, DefaultOptions())
	donor.Solve(Limits{MaxConflicts: 300})
	if donor.Status() != StatusUnknown || donor.DecisionLevel() == 0 {
		t.Skip("instance finished before split")
	}
	sub, err := donor.Split(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Learnts) > 7 {
		t.Fatalf("forwarded %d learnts, cap was 7", len(sub.Learnts))
	}
	for _, c := range sub.Learnts {
		if len(c) > 5 {
			t.Fatalf("forwarded clause %v exceeds max length 5", c)
		}
	}
}

func TestExportLearntsZeroLen(t *testing.T) {
	s := New(gen.Pigeonhole(7), DefaultOptions())
	s.Solve(Limits{MaxConflicts: 100})
	if got := s.ExportLearnts(0, 10); got != nil {
		t.Fatalf("maxLen 0 should export nothing, got %d", len(got))
	}
}

func TestNewFromSubproblemMismatch(t *testing.T) {
	f := gen.RandomKSAT(5, 10, 3, 1)
	sub := &Subproblem{NumVars: 99}
	if _, err := NewFromSubproblem(f, sub, DefaultOptions()); err == nil {
		t.Fatal("variable-count mismatch accepted")
	}
}

// TestRepeatedSplits drives a donor through several sequential splits and
// checks the union of all parts still covers the search space.
func TestRepeatedSplits(t *testing.T) {
	for seed := int64(50); seed < 62; seed++ {
		f := gen.RandomKSAT(12, 51, 3, seed)
		want, _ := brute.Solve(f, 0)

		var subs []*Subproblem
		donor := New(f, DefaultOptions())
		for k := 0; k < 3; k++ {
			donor.Solve(Limits{MaxConflicts: 2})
			if donor.Status() != StatusUnknown || donor.DecisionLevel() == 0 {
				break
			}
			sub, err := donor.Split(10, 0)
			if err != nil {
				t.Fatalf("seed %d split %d: %v", seed, k, err)
			}
			subs = append(subs, sub)
		}
		anySAT := donor.Solve(Limits{}).Status == StatusSAT
		for _, sub := range subs {
			rec, err := NewFromSubproblem(f, sub, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if rec.Solve(Limits{}).Status == StatusSAT {
				anySAT = true
			}
		}
		if anySAT != (want == brute.SAT) {
			t.Fatalf("seed %d: parts say SAT=%v, brute says %v", seed, anySAT, want)
		}
	}
}

// insertionSortByQuality is the export ranking sortRefsByQuality replaced,
// kept as its reference: (LBD, length) ascending, 0 LBD last, ties in the
// order given.
func insertionSortByQuality(a *Arena, refs []ClauseRef) {
	key := func(r ClauseRef) uint64 {
		lbd := a.LBD(r)
		if lbd == 0 {
			lbd = maxLBD + 1
		}
		return uint64(lbd)<<32 | uint64(a.Size(r))
	}
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && key(refs[j]) < key(refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}

// The export ranking orders exactly as the insertion sort it replaced did,
// ties and unrecorded LBDs included.
func TestSortRefsByQualityMatchesInsertionSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		s := &Solver{ca: NewArena(0)}
		refs := make([]ClauseRef, r.Intn(400))
		lits := make([]cnf.Lit, 8)
		for i := range refs {
			refs[i] = s.ca.Alloc(lits[:1+r.Intn(len(lits))], true, false, 0)
			s.ca.SetLBD(refs[i], r.Intn(5)) // few keys: many ties, some unrecorded
		}
		want := slices.Clone(refs)
		insertionSortByQuality(s.ca, want)
		s.sortRefsByQuality(refs)
		if !slices.Equal(refs, want) {
			t.Fatalf("trial %d: ranking of %d refs differs from the insertion sort", trial, len(refs))
		}
	}
}

// Exported clauses share one slab; appending to one must not reach the next.
func TestExportLearntsClausesDoNotAlias(t *testing.T) {
	s := New(gen.RandomKSAT(60, 256, 3, 3), DefaultOptions())
	s.Solve(Limits{MaxConflicts: 200})
	out := s.ExportLearnts(100, 0)
	if len(out) < 2 {
		t.Fatalf("exported %d learnts, want at least 2", len(out))
	}
	next := slices.Clone(out[1])
	_ = append(out[0], cnf.PosLit(0))
	if !slices.Equal(out[1], next) {
		t.Fatalf("appending to clause 0 rewrote clause 1: %v, was %v", out[1], next)
	}
}
