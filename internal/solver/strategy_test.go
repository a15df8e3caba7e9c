package solver

import (
	"math/rand"
	"slices"
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// strategyFlags is the -split-strategy vocabulary the tests sweep, each
// subtest named by its flag.
var strategyFlags = []string{"first-decision", "dilemma", "dilemma-veto"}

func mustParseStrategy(t *testing.T, flag string) SplitStrategy {
	t.Helper()
	st, err := ParseStrategy(flag)
	if err != nil {
		t.Fatal(err)
	}
	return st
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
		for _, flag := range strategyFlags {
			st := mustParseStrategy(t, flag)
			t.Run(name+"/"+flag, func(t *testing.T) {
				underEachPreset(t, func(t *testing.T, preset func() Options) {
					checkPartition(t, f, st, want, preset)
				})
			})
		}
	}
}

func checkPartition(t *testing.T, f *cnf.Formula, st SplitStrategy, want brute.Result, preset func() Options) {
	donor := New(f, preset())
	if st == (FirstDecision{}) {
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
	checkCubes(t, nil, donor, batch)
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
	for _, flag := range strategyFlags {
		st := mustParseStrategy(t, flag)
		t.Run(flag, func(t *testing.T) {
			underEachPreset(t, func(t *testing.T, preset func() Options) {
				for seed := int64(0); seed < 30; seed++ {
					f := gen.RandomKSAT(10, 42, 3, seed)
					want, _ := brute.Solve(f, 0)
					donor := New(f, preset())
					donor.Solve(Limits{MaxConflicts: 2})
					if donor.Status() != StatusUnknown {
						continue
					}
					if st == (FirstDecision{}) && donor.DecisionLevel() == 0 {
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

// TestDilemmaDepthBookkeeping pins the strategy path contract for both
// strategies, over two splits in a row so the pre-split cube is not the
// root's: see checkCubes.
func TestDilemmaDepthBookkeeping(t *testing.T) {
	for _, flag := range []string{"first-decision", "dilemma"} {
		st := mustParseStrategy(t, flag)
		t.Run(flag, func(t *testing.T) {
			f := gen.Pigeonhole(8)
			donor := New(f, DefaultOptions())
			for split := 0; split < 2; split++ {
				donor.Solve(Limits{MaxConflicts: 50})
				if donor.Status() != StatusUnknown || donor.DecisionLevel() == 0 {
					t.Fatal("nothing to split")
				}
				pre := donor.Path()
				batch, err := st.Split(donor, 10, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) != st.MaxBatch() {
					t.Fatalf("%s shipped %d cofactors, want %d", flag, len(batch), st.MaxBatch())
				}
				checkCubes(t, pre, donor, batch)
			}
		})
	}
}

// checkCubes checks the cubes one split leaves behind, the donor's and each
// cofactor's: every one extends the pre-split cube by exactly the split
// literals (k of them, log2 of the number of parts, the depth each part's
// old depth field held), they are pairwise contradictory, and their masses
// 2^-len sum to the pre-split cube's.
func checkCubes(t *testing.T, pre []cnf.Lit, donor *Solver, batch []*Subproblem) {
	t.Helper()
	cubes := [][]cnf.Lit{donor.Path()}
	for _, sub := range batch {
		cubes = append(cubes, sub.Cube)
	}
	k := 0
	for 1<<k < len(cubes) {
		k++
	}
	if 1<<k != len(cubes) {
		t.Fatalf("%d parts, not a power of two", len(cubes))
	}
	mass := func(c []cnf.Lit) uint64 { return 1 << (62 - len(c)) }
	var sum uint64
	for i, c := range cubes {
		if len(c) != len(pre)+k || !slices.Equal(c[:len(pre)], pre) {
			t.Fatalf("part %d cube %v does not extend %v by %d literals", i, c, pre, k)
		}
		vars := func(c []cnf.Lit) (vs []cnf.Var) {
			for _, l := range c[len(pre):] {
				vs = append(vs, l.Var())
			}
			return vs
		}
		if !slices.Equal(vars(c), vars(cubes[0])) {
			t.Fatalf("part %d split on %v, the donor on %v", i, vars(c), vars(cubes[0]))
		}
		for j, d := range cubes[:i] {
			if !slices.ContainsFunc(c, func(l cnf.Lit) bool { return slices.Contains(d, l.Not()) }) {
				t.Fatalf("parts %d and %d (%v, %v) do not contradict", j, i, d, c)
			}
		}
		sum += mass(c)
	}
	if sum != mass(pre) {
		t.Fatalf("parts' mass %d, the pre-split cube's %d", sum, mass(pre))
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
	batch, err := Dilemma{}.Split(donor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The split variables are the trailing k assumptions of any cofactor.
	k := dilemmaK
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
		want   SplitStrategy
		fanout int
	}{
		{"", FirstDecision{}, 1},
		{"first-decision", FirstDecision{}, 1},
		{"dilemma", Dilemma{}, 3},
		{"dilemma-veto", Dilemma{veto: true}, 3},
	}
	for _, c := range cases {
		st, err := ParseStrategy(c.flag)
		if err != nil {
			t.Fatalf("%q: %v", c.flag, err)
		}
		if st != c.want || st.MaxBatch() != c.fanout {
			t.Fatalf("%q -> %#v/%d, want %#v/%d", c.flag, st, st.MaxBatch(), c.want, c.fanout)
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
	if _, err := (Dilemma{}).Split(s, 0, 0); err == nil {
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
		var subs []*Subproblem
		refuted := false
		for round := 0; round < 3; round++ {
			donor.Solve(Limits{MaxConflicts: 2})
			if donor.Status() != StatusUnknown {
				break
			}
			wantDepth := len(donor.Path()) + dilemmaK
			batch, err := Dilemma{}.Split(donor, 10, 0)
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
			if len(donor.Path()) != wantDepth {
				t.Fatalf("seed %d round %d: depth %d, want %d", seed, round, len(donor.Path()), wantDepth)
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

// insertionSortCandidates is the candidate ranking sortCandidates replaced,
// kept as its reference: votes desc, activity desc, var asc.
func insertionSortCandidates(cands []splitCandidate) {
	better := func(a, b splitCandidate) bool {
		if a.votes != b.votes {
			return a.votes > b.votes
		}
		if a.act != b.act {
			return a.act > b.act
		}
		return a.v < b.v
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && better(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// The split-candidate ranking and the veto's median order exactly as the
// insertion sorts they replaced did, on pools full of tied votes,
// activities and occurrence counts.
func TestSortCandidatesMatchesInsertionSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cands := make([]splitCandidate, 1+r.Intn(400))
		for i, v := range r.Perm(len(cands)) {
			cands[i] = splitCandidate{v: cnf.Var(v), votes: r.Intn(4),
				act: float64(r.Intn(3)), occ: r.Intn(6)}
		}
		want := slices.Clone(cands)
		insertionSortCandidates(want)
		got := slices.Clone(cands)
		sortCandidates(got)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: ranking of %d candidates differs from the insertion sort", trial, len(cands))
		}
		occs := make([]int, len(cands))
		for i, c := range cands {
			occs[i] = c.occ
		}
		for i := 1; i < len(occs); i++ {
			for j := i; j > 0 && occs[j] < occs[j-1]; j-- {
				occs[j], occs[j-1] = occs[j-1], occs[j]
			}
		}
		if med := medianOcc(cands); med != occs[len(occs)/2] {
			t.Fatalf("trial %d: median occurrence %d, insertion sort says %d", trial, med, occs[len(occs)/2])
		}
	}
}
