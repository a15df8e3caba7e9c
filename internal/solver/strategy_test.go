package solver

import (
	"fmt"
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// strategyUnderTest builds a fresh strategy per run (Dilemma carries no
// state, but pointer strategies should not be shared across donors).
func strategiesUnderTest(t *testing.T) []SplitStrategy {
	t.Helper()
	var out []SplitStrategy
	for _, name := range []string{"first-decision", "dilemma", "dilemma-veto"} {
		st, err := ParseStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}

// oracleFormulas is the cross-generator suite for the partition property:
// one small instance per internal/gen family that brute force can decide.
func oracleFormulas() map[string]*cnf.Formula {
	return map[string]*cnf.Formula{
		"random-sat":    gen.RandomKSAT(10, 38, 3, 3),
		"random-unsat":  gen.RandomKSAT(10, 70, 3, 5),
		"planted":       gen.PlantedKSAT(12, 60, 3, 7),
		"pigeonhole":    gen.Pigeonhole(5),
		"parity-unsat":  gen.ParityChain(9, 3, false, 11),
		"parity-sat":    gen.ParityChain(9, 3, true, 11),
		"xor-system":    gen.XORSystem(10, 8, true, 13),
		"adder-miter":   gen.AdderMiter(3),
		"ph-shuffled":   gen.PigeonholeShuffled(5, 17),
		"random-4sat":   gen.RandomKSAT(9, 80, 4, 19),
		"planted-tight": gen.PlantedKSAT(10, 80, 3, 23),
	}
}

// TestStrategyPartitionProperty is the core soundness property every
// strategy must satisfy: the donor's remaining space plus the shipped
// cofactors partition the pre-split space exactly, so solving all parts and
// OR-ing the verdicts equals a single solver's (brute-forced) verdict —
// on every internal/gen family.
func TestStrategyPartitionProperty(t *testing.T) {
	for name, f := range oracleFormulas() {
		want, _ := brute.Solve(f, 0)
		for _, st := range strategiesUnderTest(t) {
			t.Run(fmt.Sprintf("%s/%s", name, st.Name()), func(t *testing.T) {
				underEachPreset(t, func(t *testing.T, preset func() Options) {
					checkPartition(t, f, st, want, preset)
				})
			})
		}
	}
}

func checkPartition(t *testing.T, f *cnf.Formula, st SplitStrategy, want brute.Result, preset func() Options) {
	donor := New(f, preset())
	if st.Name() == "first-decision" {
		// First-decision needs a decision on the stack; the
		// dilemma strategies can carve up a fresh donor.
		donor.Solve(Limits{MaxConflicts: 4})
		if donor.Status() != StatusUnknown {
			t.Skip("decided before a split was possible")
		}
		if donor.DecisionLevel() == 0 {
			t.Skip("no decision to fork on")
		}
	}
	batch, err := st.Split(donor, 10, 0)
	if err == ErrNothingToSplit {
		t.Skip("nothing to split")
	}
	if err != nil {
		// The dilemma prepass may legitimately refute the donor;
		// then the whole space is the donor's and it must be UNSAT.
		if donor.Status() == StatusUNSAT {
			if want != brute.UNSAT {
				t.Fatalf("split refuted the donor but brute says %v", want)
			}
			return
		}
		t.Fatal(err)
	}
	if len(batch) > st.MaxBatch() {
		t.Fatalf("batch of %d exceeds MaxBatch %d", len(batch), st.MaxBatch())
	}
	gotSAT := false
	if r := donor.Solve(Limits{}); r.Status == StatusSAT {
		gotSAT = true
		if err := f.Verify(r.Model); err != nil {
			t.Fatalf("donor model invalid: %v", err)
		}
	}
	for i, sub := range batch {
		rec, err := NewFromSubproblem(f, sub, preset())
		if err != nil {
			t.Fatalf("cofactor %d: %v", i, err)
		}
		if r := rec.Solve(Limits{}); r.Status == StatusSAT {
			gotSAT = true
			if err := f.Verify(r.Model); err != nil {
				t.Fatalf("cofactor %d model invalid: %v", i, err)
			}
		}
	}
	if gotSAT != (want == brute.SAT) {
		t.Fatalf("parts say SAT=%v, brute says %v", gotSAT, want)
	}
}

// TestStrategyPartitionRandomSweep drives the same property over a seed
// sweep of random 3-SAT near the phase transition, where both verdicts and
// both donor-refuted edge cases occur.
func TestStrategyPartitionRandomSweep(t *testing.T) {
	for _, st := range strategiesUnderTest(t) {
		t.Run(st.Name(), func(t *testing.T) {
			underEachPreset(t, func(t *testing.T, preset func() Options) {
				for seed := int64(0); seed < 30; seed++ {
					f := gen.RandomKSAT(10, 42, 3, seed)
					want, _ := brute.Solve(f, 0)
					donor := New(f, preset())
					donor.Solve(Limits{MaxConflicts: 2})
					if donor.Status() != StatusUnknown {
						continue
					}
					if st.Name() == "first-decision" && donor.DecisionLevel() == 0 {
						continue
					}
					batch, err := st.Split(donor, 10, 0)
					if err != nil {
						if donor.Status() == StatusUNSAT && want == brute.UNSAT {
							continue
						}
						t.Fatalf("seed %d: %v (donor %v, brute %v)", seed, err, donor.Status(), want)
					}
					gotSAT := donor.Solve(Limits{}).Status == StatusSAT
					for _, sub := range batch {
						rec, err := NewFromSubproblem(f, sub, preset())
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if rec.Solve(Limits{}).Status == StatusSAT {
							gotSAT = true
						}
					}
					if gotSAT != (want == brute.SAT) {
						t.Fatalf("seed %d: parts say SAT=%v, brute says %v", seed, gotSAT, want)
					}
				}
			})
		})
	}
}

// TestDilemmaDepthBookkeeping pins the strategy depth contract: a k-way
// dilemma split advances the donor's guiding-path depth by exactly k and
// stamps every shipped cofactor with the same new depth, so closing all
// 2^k cofactors at depth d+k accounts for exactly 2^-d of the root space.
func TestDilemmaDepthBookkeeping(t *testing.T) {
	f := gen.Pigeonhole(8)
	donor := New(f, DefaultOptions())
	donor.Solve(Limits{MaxConflicts: 50})
	if donor.Status() != StatusUnknown {
		t.Fatal("instance decided before split")
	}
	depthBefore := donor.PathDepth()
	d := &Dilemma{K: 2}
	batch, err := d.Split(donor, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("k=2 dilemma shipped %d cofactors, want 3", len(batch))
	}
	if donor.PathDepth() != depthBefore+2 {
		t.Fatalf("donor depth %d after split, want %d", donor.PathDepth(), depthBefore+2)
	}
	for i, sub := range batch {
		if sub.Depth != depthBefore+2 {
			t.Fatalf("cofactor %d depth %d, want %d", i, sub.Depth, depthBefore+2)
		}
	}
}

// TestDilemmaCofactorsDisjoint checks no assignment is explored twice: all
// 2^k cofactors (donor's included) assign the same k variables and each
// pair disagrees on at least one of them.
func TestDilemmaCofactorsDisjoint(t *testing.T) {
	f := gen.Pigeonhole(8)
	donor := New(f, DefaultOptions())
	donor.Solve(Limits{MaxConflicts: 50})
	if donor.Status() != StatusUnknown {
		t.Fatal("instance decided before split")
	}
	d := &Dilemma{K: 2}
	batch, err := d.Split(donor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The split variables are the trailing k assumptions of any cofactor.
	k := 2
	combos := make(map[int]bool)
	var vars []cnf.Var
	for _, sub := range batch {
		tail := sub.Assumptions[len(sub.Assumptions)-k:]
		if vars == nil {
			for _, l := range tail {
				vars = append(vars, l.Var())
			}
		}
		combo := 0
		for i, l := range tail {
			if l.Var() != vars[i] {
				t.Fatalf("cofactors fork different variables: %v vs %v", l.Var(), vars[i])
			}
			if !l.Neg() {
				combo |= 1 << i
			}
		}
		if combos[combo] {
			t.Fatalf("combo %b shipped twice", combo)
		}
		combos[combo] = true
	}
	// The donor holds the one remaining combo, at level 0.
	donorCombo := 0
	for i, v := range vars {
		switch donor.Value(v) {
		case cnf.True:
			donorCombo |= 1 << i
		case cnf.Undef:
			t.Fatalf("donor leaves split variable %d unassigned", v)
		}
		if donor.LevelOf(v) != 0 {
			t.Fatalf("split variable %d not permanent on donor", v)
		}
	}
	if combos[donorCombo] {
		t.Fatal("donor's cofactor was also shipped")
	}
	if len(combos) != (1<<k)-1 {
		t.Fatalf("shipped %d distinct combos, want %d", len(combos), (1<<k)-1)
	}
}

// TestParseStrategy covers the flag vocabulary and fan-out table.
func TestParseStrategy(t *testing.T) {
	cases := []struct {
		flag   string
		name   string
		fanout int
	}{
		{"", "first-decision", 1},
		{"first-decision", "first-decision", 1},
		{"dilemma", "dilemma", 3},
		{"dilemma-veto", "dilemma-veto", 3},
	}
	for _, c := range cases {
		st, err := ParseStrategy(c.flag)
		if err != nil {
			t.Fatalf("%q: %v", c.flag, err)
		}
		if st.Name() != c.name || st.MaxBatch() != c.fanout {
			t.Fatalf("%q -> %s/%d, want %s/%d", c.flag, st.Name(), st.MaxBatch(), c.name, c.fanout)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestVetoFilterDropsUnderconnected pins the Kotthoff & Moore veto: a
// candidate occurring in fewer problem clauses than the pool median is
// removed, while well-connected active candidates survive.
func TestVetoFilterDropsUnderconnected(t *testing.T) {
	// Var 1 appears in every clause; var 5 in exactly one.
	f := cnf.NewFormula(5)
	f.Add(1, 2, 3).Add(1, -2, 4).Add(1, 3, -4).Add(-1, 2, -3).Add(1, -3, 5)
	s := New(f, DefaultOptions())
	cands := []splitCandidate{
		{v: 0, votes: 1, act: 2},
		{v: 1, votes: 1, act: 1},
		{v: 2, votes: 1, act: 1},
		{v: 3, votes: 1, act: 1},
		{v: 4, votes: 1, act: 1},
	}
	kept := vetoFilter(s, cands)
	for _, c := range kept {
		if c.v == 4 {
			t.Fatal("underconnected variable survived the veto")
		}
	}
	if len(kept) == 0 || kept[0].v != 0 {
		t.Fatalf("filter mangled the best-first order: %+v", kept)
	}

	// Untouched candidates (zero votes, zero activity) are vetoed too,
	// even when structurally well-connected.
	cands = []splitCandidate{
		{v: 0, votes: 0, act: 0},
		{v: 1, votes: 2, act: 1},
		{v: 2, votes: 1, act: 1},
	}
	kept = vetoFilter(s, cands)
	if len(kept) == 0 {
		t.Fatal("filter emptied a pool with a keepable candidate")
	}
	for _, c := range kept {
		if c.v == 0 {
			t.Fatal("never-touched variable survived the veto")
		}
	}

	// When everything would be vetoed the unfiltered pool stands.
	cands = []splitCandidate{{v: 4, votes: 0, act: 0}}
	if kept = vetoFilter(s, cands); len(kept) != 1 {
		t.Fatalf("all-vetoed pool did not fall back: %+v", kept)
	}
}

// TestDilemmaOnDecidedProblemFails mirrors the Solver.Split guard.
func TestDilemmaOnDecidedProblemFails(t *testing.T) {
	f := cnf.NewFormula(1)
	f.Add(1)
	s := New(f, DefaultOptions())
	s.Solve(Limits{})
	d := &Dilemma{K: 2}
	if _, err := d.Split(s, 0, 0); err == nil {
		t.Fatal("dilemma split of a decided problem accepted")
	}
}

// TestDilemmaRepeatedSplits runs several dilemma splits off one donor and
// checks the accumulated parts still cover the space, with the donor depth
// advancing k per split.
func TestDilemmaRepeatedSplits(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		f := gen.RandomKSAT(12, 51, 3, seed)
		want, _ := brute.Solve(f, 0)
		donor := New(f, DefaultOptions())
		d := &Dilemma{K: 2}
		var subs []*Subproblem
		refuted := false
		for round := 0; round < 3; round++ {
			donor.Solve(Limits{MaxConflicts: 2})
			if donor.Status() != StatusUnknown {
				break
			}
			wantDepth := donor.PathDepth() + 2
			batch, err := d.Split(donor, 10, 0)
			if err != nil {
				if donor.Status() == StatusUNSAT {
					refuted = true
					break
				}
				if err == ErrNothingToSplit {
					break
				}
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if donor.PathDepth() != wantDepth {
				t.Fatalf("seed %d round %d: depth %d, want %d", seed, round, donor.PathDepth(), wantDepth)
			}
			subs = append(subs, batch...)
		}
		anySAT := false
		if !refuted && donor.Solve(Limits{}).Status == StatusSAT {
			anySAT = true
		}
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
