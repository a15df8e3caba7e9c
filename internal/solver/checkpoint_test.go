package solver

import (
	"bytes"
	"strings"
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

func TestLightCheckpointRoundtrip(t *testing.T) {
	f := gen.Pigeonhole(8)
	s := New(f, DefaultOptions())
	s.Solve(Limits{MaxConflicts: 200})
	cp := s.Checkpoint(LightCheckpoint, 0)
	if cp.Kind != LightCheckpoint || len(cp.Learnts) != 0 {
		t.Fatalf("light checkpoint carries learnts: %d", len(cp.Learnts))
	}
	restored, err := Restore(f, cp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r := restored.Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("restored run: %v", r.Status)
	}
}

func TestHeavyCheckpointRoundtrip(t *testing.T) {
	f := gen.Pigeonhole(8)
	s := New(f, DefaultOptions())
	s.Solve(Limits{MaxConflicts: 500})
	cp := s.Checkpoint(HeavyCheckpoint, 0)
	if len(cp.Learnts) == 0 {
		t.Fatal("heavy checkpoint carries no learnts after 500 conflicts")
	}
	restored, err := Restore(f, cp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The restored solver starts with the checkpointed clauses pending.
	if restored.PendingImports() != len(cp.Learnts) {
		t.Fatalf("pending imports = %d, want %d", restored.PendingImports(), len(cp.Learnts))
	}
	if r := restored.Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("restored run: %v", r.Status)
	}
}

func TestHeavyCheckpointCap(t *testing.T) {
	s := New(gen.Pigeonhole(8), DefaultOptions())
	s.Solve(Limits{MaxConflicts: 500})
	cp := s.Checkpoint(HeavyCheckpoint, 5)
	if len(cp.Learnts) > 5 {
		t.Fatalf("cap ignored: %d learnts", len(cp.Learnts))
	}
}

// TestCheckpointPreservesAnswer: restoring from a mid-run checkpoint must
// reach the same SAT/UNSAT verdict as the oracle on the original formula.
func TestCheckpointPreservesAnswer(t *testing.T) {
	underEachPreset(t, func(t *testing.T, preset func() Options) {
		for seed := int64(0); seed < 20; seed++ {
			f := gen.RandomKSAT(10, 43, 3, seed)
			want, _ := brute.Solve(f, 0)
			s := New(f, preset())
			s.Solve(Limits{MaxConflicts: 3})
			if s.Status() != StatusUnknown {
				continue
			}
			for _, kind := range []CheckpointKind{LightCheckpoint, HeavyCheckpoint} {
				cp := s.Checkpoint(kind, 0)
				restored, err := Restore(f, cp, preset())
				if err != nil {
					t.Fatal(err)
				}
				r := restored.Solve(Limits{})
				if (r.Status == StatusSAT) != (want == brute.SAT) {
					t.Fatalf("seed %d kind %d: restored=%v brute=%v", seed, kind, r.Status, want)
				}
				if r.Status == StatusSAT {
					if err := f.Verify(r.Model); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			}
		}
	})
}

// TestCheckpointAfterSplitPreservesHalf: a checkpoint taken after a split
// must restore the donor's committed half, not the whole problem.
func TestCheckpointAfterSplitRestoresDonorHalf(t *testing.T) {
	f := gen.Pigeonhole(8)
	s := New(f, DefaultOptions())
	s.Solve(Limits{MaxConflicts: 10})
	if s.Status() != StatusUnknown || s.DecisionLevel() == 0 {
		t.Skip("finished before split")
	}
	sub, err := s.Split(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	splitLit := sub.Assumptions[len(sub.Assumptions)-1]
	cp := s.Checkpoint(LightCheckpoint, 0)
	restored, err := Restore(f, cp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Donor committed to the complement of the recipient's split literal.
	if restored.vals[splitLit] != cnf.False {
		t.Fatal("restored donor lost its committed split assignment")
	}
}

func TestRestoreMismatch(t *testing.T) {
	cp := &Checkpoint{NumVars: 3}
	if _, err := Restore(cnf.NewFormula(5), cp, DefaultOptions()); err == nil {
		t.Fatal("mismatched restore accepted")
	}
}

func TestCheckpointSaveLoadRoundtrip(t *testing.T) {
	f := gen.Pigeonhole(8)
	s := New(f, DefaultOptions())
	s.Solve(Limits{MaxConflicts: 300})
	cp := s.Checkpoint(HeavyCheckpoint, 50)

	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVars != cp.NumVars || len(got.Level0) != len(cp.Level0) || len(got.Learnts) != len(cp.Learnts) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, cp)
	}
	restored, err := Restore(f, got, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r := restored.Solve(Limits{}); r.Status != StatusUNSAT {
		t.Fatalf("restored-from-disk run: %v", r.Status)
	}
}

func TestLoadCheckpointGarbage(t *testing.T) {
	if _, err := LoadCheckpoint(strings.NewReader("not a checkpoint")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// checkCheckpointRoundTrip is the property behind FuzzCheckpointRoundTrip:
// a checkpoint taken mid-run must survive Save/LoadCheckpoint bit-exactly
// (same level-0 prefix, same learned-clause set, literal for literal), and
// the restored solver must reach the oracle's verdict on the original
// formula — under the base options and under every portfolio worker
// profile up to width `workers` (a restored portfolio rebuilds all K
// workers from the one pathfinder checkpoint).
func checkCheckpointRoundTrip(t *testing.T, seed int64, conflicts int64, learntCap, workers int) {
	t.Helper()
	f := gen.RandomKSAT(12, 50, 3, seed)
	want, _ := brute.Solve(f, 0)
	s := New(f, DefaultOptions())
	s.Solve(Limits{MaxConflicts: conflicts})
	if s.Status() != StatusUnknown {
		return // solved before the checkpoint; nothing to restore
	}
	cp := s.Checkpoint(HeavyCheckpoint, learntCap)

	var buf bytes.Buffer
	if err := cp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The serialized form must preserve the checkpoint exactly.
	if got.Kind != cp.Kind || got.NumVars != cp.NumVars {
		t.Fatalf("header changed: %+v vs %+v", got, cp)
	}
	if len(got.Level0) != len(cp.Level0) {
		t.Fatalf("level-0 length %d vs %d", len(got.Level0), len(cp.Level0))
	}
	for i, l := range cp.Level0 {
		if got.Level0[i] != l {
			t.Fatalf("level-0[%d]: %v vs %v", i, got.Level0[i], l)
		}
	}
	if len(got.Learnts) != len(cp.Learnts) {
		t.Fatalf("learnt set size %d vs %d", len(got.Learnts), len(cp.Learnts))
	}
	for i, c := range cp.Learnts {
		if len(got.Learnts[i]) != len(c) {
			t.Fatalf("learnt %d length changed", i)
		}
		for j, l := range c {
			if got.Learnts[i][j] != l {
				t.Fatalf("learnt %d literal %d: %v vs %v", i, j, got.Learnts[i][j], l)
			}
		}
	}

	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		opts := ProfileFor(w, DefaultOptions().Seed).Apply(DefaultOptions())
		restored, err := Restore(f, got, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := restored.Solve(Limits{})
		if (r.Status == StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d worker %d: restored verdict %v, oracle %v", seed, w, r.Status, want)
		}
		if r.Status == StatusSAT {
			if err := f.Verify(r.Model); err != nil {
				t.Fatalf("seed %d worker %d: restored model invalid: %v", seed, w, err)
			}
		}
	}
}

// FuzzCheckpointRoundTrip fuzzes the Save/LoadCheckpoint/Restore pipeline
// over random instances, interruption points, learnt caps, and portfolio
// widths (K>1 restores the checkpoint under every diversified worker
// profile). The seed corpus doubles as the deterministic property test
// under plain `go test`.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(5), uint8(0), uint8(1))
	f.Add(int64(1), int64(1), uint8(3), uint8(4))
	f.Add(int64(2), int64(40), uint8(0), uint8(2))
	f.Add(int64(3), int64(12), uint8(1), uint8(3))
	f.Add(int64(17), int64(25), uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed, conflicts int64, learntCap, workers uint8) {
		if conflicts < 1 {
			conflicts = 1
		}
		checkCheckpointRoundTrip(t, seed&0xffff, conflicts%128, int(learntCap), int(workers%6))
	})
}
