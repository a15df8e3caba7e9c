package solver

import (
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// TestArenaAllocAndAccessors exercises the slab encoding round trip:
// literal storage, flags, activity, and the exact live-byte counter.
func TestArenaAllocAndAccessors(t *testing.T) {
	a := NewArena(0)
	c1 := cnf.NewClause(1, -2, 3)
	r1 := a.Alloc(c1, false, false, 0)
	c2 := cnf.NewClause(-4, 5)
	r2 := a.Alloc(c2, true, true, 2.5)

	if a.Size(r1) != 3 || a.Size(r2) != 2 {
		t.Fatalf("sizes %d, %d", a.Size(r1), a.Size(r2))
	}
	for i, l := range c1 {
		if a.Lit(r1, i) != l {
			t.Fatalf("clause 1 literal %d: got %v want %v", i, a.Lit(r1, i), l)
		}
	}
	if a.Learnt(r1) || a.Local(r1) || !a.Learnt(r2) || !a.Local(r2) {
		t.Fatal("flags scrambled across clauses")
	}
	if a.Act(r2) != 2.5 {
		t.Fatalf("activity %v, want 2.5", a.Act(r2))
	}
	if a.Deleted(r1) || a.Deleted(r2) {
		t.Fatal("fresh clauses marked deleted")
	}
	a.SetLit(r1, 1, cnf.LitFromDIMACS(7))
	if a.Lit(r1, 1) != cnf.LitFromDIMACS(7) {
		t.Fatal("SetLit did not stick")
	}
	// 2 headers (2 words each) + 3 + 2 literals = 9 words.
	if got := a.LiveBytes(); got != 9*4 {
		t.Fatalf("live bytes %d, want %d", got, 9*4)
	}
	if a.WastedBytes() != 0 {
		t.Fatalf("fresh arena wasted %d bytes", a.WastedBytes())
	}
}

// TestArenaFreeAndShrinkAccounting checks that Free (idempotent) and
// shrinkTo move words from live to wasted exactly.
func TestArenaFreeAndShrinkAccounting(t *testing.T) {
	a := NewArena(0)
	r1 := a.Alloc(cnf.NewClause(1, 2, 3, 4), false, false, 0)
	r2 := a.Alloc(cnf.NewClause(-1, -2), true, false, 1)

	a.shrinkTo(r1, 2) // drop 2 literal words
	if a.Size(r1) != 2 {
		t.Fatalf("size after shrink %d", a.Size(r1))
	}
	if a.LiveBytes() != (2+2+2+2)*4 || a.WastedBytes() != 2*4 {
		t.Fatalf("after shrink: live %d wasted %d", a.LiveBytes(), a.WastedBytes())
	}
	a.shrinkTo(r1, 3) // growing is a no-op
	if a.Size(r1) != 2 {
		t.Fatal("shrinkTo grew a clause")
	}

	a.Free(r2)
	if !a.Deleted(r2) {
		t.Fatal("Free did not mark deleted")
	}
	a.Free(r2) // idempotent: must not double-count
	if a.LiveBytes() != (2+2)*4 || a.WastedBytes() != (2+2+2)*4 {
		t.Fatalf("after free: live %d wasted %d", a.LiveBytes(), a.WastedBytes())
	}
	if !a.Learnt(r2) {
		t.Fatal("Free clobbered the learnt flag")
	}
}

// TestArenaRelocateForwarding checks that relocating the same clause twice
// yields the same forward reference — the property GC relies on so a
// clause shared by two watchers, a reason, and the clause list lands at
// one address.
func TestArenaRelocateForwarding(t *testing.T) {
	a := NewArena(0)
	c := cnf.NewClause(1, -2, 3)
	r := a.Alloc(c, true, true, 4.25)
	a.Alloc(cnf.NewClause(5, 6), false, false, 0)

	to := NewArena(0)
	n1 := to.relocate(a.data, r)
	n2 := to.relocate(a.data, r)
	if n1 != n2 {
		t.Fatalf("relocate forwarded to %d then %d", n1, n2)
	}
	if to.Size(n1) != 3 || !to.Learnt(n1) || !to.Local(n1) || to.Act(n1) != 4.25 {
		t.Fatal("relocated clause lost its header")
	}
	for i, l := range c {
		if to.Lit(n1, i) != l {
			t.Fatalf("relocated literal %d: got %v want %v", i, to.Lit(n1, i), l)
		}
	}
}

// TestMemoryBytesExact is the accounting acceptance test: after every
// add/learn/reduce cycle, MemoryBytes must equal the arena's live byte
// count (recomputed by walking the clause lists) plus the fixed per-var
// overhead — no estimation anywhere.
func TestMemoryBytesExact(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		f := gen.RandomKSAT(40, 170, 3, seed)
		s := New(f, DefaultOptions())
		check := func(stage string) {
			t.Helper()
			var words int64
			for _, r := range liveClauses(s) {
				words += int64(hdrWords + s.ca.Size(r))
			}
			if got := s.ArenaBytes(); got != words*4 {
				t.Fatalf("seed %d, %s: ArenaBytes %d, clause walk %d", seed, stage, got, words*4)
			}
			if got, want := s.MemoryBytes(), words*4+int64(s.nVars)*40; got != want {
				t.Fatalf("seed %d, %s: MemoryBytes %d, want %d", seed, stage, got, want)
			}
		}
		check("fresh")
		for round := 0; round < 4; round++ {
			s.Solve(Limits{MaxConflicts: 80})
			check("after solve burst")
			if s.Status() != StatusUnknown {
				break
			}
			if err := s.ImportClauses([]cnf.Clause{cnf.NewClause(1, 2, 3)}); err != nil {
				t.Fatal(err)
			}
			s.Solve(Limits{MaxConflicts: 1})
			check("after import merge")
			if s.Status() != StatusUnknown {
				break
			}
			s.reduceDB()
			check("after reduceDB")
			s.garbageCollect()
			check("after GC")
		}
	}
}

// TestShedMemoryReportsReclaimed checks the shedding path end to end: the
// return value is the exact byte count freed, MemoryBytes drops
// accordingly, and Stats sees the reclamation.
func TestShedMemoryReportsReclaimed(t *testing.T) {
	f := gen.Pigeonhole(8)
	s := New(f, DefaultOptions())
	// Run long enough to accumulate a learned DB worth shedding.
	for round := 0; round < 6 && s.Status() == StatusUnknown && s.NumLearnts() < 64; round++ {
		s.Solve(Limits{MaxConflicts: 200})
	}
	if s.NumLearnts() == 0 {
		t.Fatal("no learned clauses to shed; test setup broken")
	}

	beforeLive := s.ca.LiveBytes()
	beforeWasted := s.ca.WastedBytes()
	freed := s.ShedMemory()
	if freed <= 0 {
		t.Fatalf("ShedMemory freed %d bytes with a populated learned DB", freed)
	}
	if got := beforeLive + beforeWasted - s.ca.LiveBytes(); got != freed {
		t.Fatalf("ShedMemory reported %d, footprint shrank by %d", freed, got)
	}
	if s.ca.WastedBytes() != 0 {
		t.Fatalf("shedding left %d wasted bytes uncompacted", s.ca.WastedBytes())
	}
	if got, want := s.MemoryBytes(), s.ArenaBytes()+int64(s.nVars)*40; got != want {
		t.Fatalf("MemoryBytes %d, want %d after shedding", got, want)
	}

	if v := s.Stats().ReclaimedBytes; v < freed {
		t.Errorf("Stats.ReclaimedBytes %d < bytes freed %d", v, freed)
	}
}
