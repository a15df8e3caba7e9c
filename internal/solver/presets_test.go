package solver

import (
	"math"
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// enginePresets are the two named engines. The brute-oracle batteries and
// the step pins run under both.
var enginePresets = []struct {
	name string
	opts func() Options
}{
	{"Fidelity2003", Fidelity2003},
	{"DefaultOptions", DefaultOptions},
}

// underEachPreset runs body once per named engine, each as a subtest.
func underEachPreset(t *testing.T, body func(t *testing.T, preset func() Options)) {
	for _, p := range enginePresets {
		t.Run(p.name, func(t *testing.T) { body(t, p.opts) })
	}
}

// TestReduceByLBDOrder drives the shipped engine past 40k conflicts — where
// the 2003 age key has saturated and no longer tells clauses apart — and
// checks one reduction from the outside: binary, glue <= 2 and locked
// clauses survive, and every deleted clause is worse than every clause kept
// (higher LBD, or the same LBD and learned earlier). Learn order comes from
// OnLemma, not from anything reduceDB reads.
func TestReduceByLBDOrder(t *testing.T) {
	learnedAt := map[string]int{}
	opts := DefaultOptions()
	opts.OnLemma = func(c cnf.Clause) { learnedAt[c.Key()] = len(learnedAt) }
	s := New(gen.Pigeonhole(11), opts)
	if r := s.Solve(Limits{MaxConflicts: 41_000}); r.Reason != ReasonConflictLimit {
		t.Fatalf("fixture ended early: %v/%v", r.Status, r.Reason)
	}
	if clauseAct(s.actInc) != math.MaxFloat32 {
		t.Fatalf("the float32 age key has not saturated after %d conflicts", s.Stats().Conflicts)
	}
	if s.DecisionLevel() == 0 {
		t.Fatal("paused at level 0: no clause is locked")
	}

	type row struct {
		ref               ClauseRef
		lbd, size, age    int
		protected, locked bool
	}
	var rows []row
	nLocked, nGlue, nAged := 0, 0, 0
	for _, r := range s.learnts {
		if s.ca.Deleted(r) {
			continue
		}
		age, ok := learnedAt[s.clauseAt(r).Key()]
		if !ok {
			age = -1 // strengthened at level 0 since it was learned
		} else {
			nAged++
		}
		w := row{ref: r, lbd: s.ca.LBD(r), size: s.ca.Size(r), age: age, locked: s.locked(r)}
		w.protected = w.locked || w.lbd <= 2 || w.size <= 2
		if w.locked {
			nLocked++
		}
		if w.lbd <= 2 {
			nGlue++
		}
		rows = append(rows, w)
	}
	if nLocked == 0 || nGlue == 0 || nAged < len(rows)/2 {
		t.Fatalf("fixture too thin: %d learnts, %d locked, %d glue, %d with a known age", len(rows), nLocked, nGlue, nAged)
	}

	// reduceDB may compact the arena; the old slab keeps every deleted
	// clause's flag, so read the outcome there.
	old := s.ca.data
	deletedBefore := s.stats.Deleted
	s.reduceDB()

	// worse reports whether a goes before b.
	worse := func(a, b row) bool {
		return a.lbd > b.lbd || a.lbd == b.lbd && a.age < b.age
	}
	var bestDeleted, worstKept *row
	nDeleted := 0
	for i := range rows {
		w := &rows[i]
		gone := old[w.ref]&flagDeleted != 0
		if gone {
			nDeleted++
			if w.protected {
				t.Fatalf("deleted a protected clause: lbd %d, size %d, locked %v", w.lbd, w.size, w.locked)
			}
		}
		if w.protected || w.age < 0 {
			continue
		}
		if gone {
			if bestDeleted == nil || worse(*bestDeleted, *w) {
				bestDeleted = w
			}
		} else if worstKept == nil || worse(*w, *worstKept) {
			worstKept = w
		}
	}
	if int64(nDeleted) != s.stats.Deleted-deletedBefore || nDeleted == 0 {
		t.Fatalf("saw %d deletions, stats say %d", nDeleted, s.stats.Deleted-deletedBefore)
	}
	if nDeleted > len(rows)/2 {
		t.Fatalf("deleted %d of %d: more than half", nDeleted, len(rows))
	}
	if bestDeleted != nil && worstKept != nil && worse(*worstKept, *bestDeleted) {
		t.Fatalf("kept (lbd %d, learned #%d) but deleted the better (lbd %d, learned #%d)",
			worstKept.lbd, worstKept.age, bestDeleted.lbd, bestDeleted.age)
	}
}

// TestReduceDBKeepsVerdicts forces a reduction every few conflicts on
// instances brute force can decide, under both engines.
func TestReduceDBKeepsVerdicts(t *testing.T) {
	underEachPreset(t, func(t *testing.T, preset func() Options) {
		var deleted int64
		for seed := int64(0); seed < 40; seed++ {
			f := gen.RandomKSAT(24, 103, 3, seed)
			want, _ := brute.Solve(f, 0)
			opts := preset()
			opts.MaxLearnts = 4
			s := New(f, opts)
			r := s.Solve(Limits{})
			if (r.Status == StatusSAT) != (want == brute.SAT) {
				t.Fatalf("seed %d: got %v, brute says %v", seed, r.Status, want)
			}
			if r.Status == StatusSAT {
				if err := f.Verify(r.Model); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			deleted += s.Stats().Deleted
		}
		if deleted == 0 {
			t.Fatal("no reduction ever deleted a clause")
		}
	})
}
