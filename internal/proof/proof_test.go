package proof

import (
	"bytes"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
)

// solveWithProof runs the shipped engine with proof logging and returns
// the formula's status plus the captured lemma stream.
func solveWithProof(t *testing.T, f *cnf.Formula) (solver.Status, []cnf.Clause) {
	t.Helper()
	status, lemmas, _ := solveWithProofUnder(t, f, solver.DefaultOptions())
	return status, lemmas
}

// solveWithProofUnder is solveWithProof for a given engine configuration;
// it also returns the run's counters.
func solveWithProofUnder(t *testing.T, f *cnf.Formula, opts solver.Options) (solver.Status, []cnf.Clause, solver.Stats) {
	t.Helper()
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	opts.OnLemma = pw.Hook()
	s := solver.New(f, opts)
	r := s.Solve(solver.Limits{})
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	lemmas, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return r.Status, lemmas, s.Stats()
}

func TestUNSATProofChecks(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
	}{
		{"php7", gen.Pigeonhole(7)},
		{"php8", gen.Pigeonhole(8)},
		{"xor", gen.XORSystem(20, 40, false, 3)},
		{"r3-120", gen.RandomKSAT(120, 511, 3, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []struct {
				name string
				opts solver.Options
			}{
				{"Fidelity2003", solver.Fidelity2003()}, // what `zchaff -proof` logs
				{"DefaultOptions", solver.DefaultOptions()},
			} {
				t.Run(p.name, func(t *testing.T) {
					status, lemmas, _ := solveWithProofUnder(t, tc.f, p.opts)
					if status != solver.StatusUNSAT {
						t.Fatalf("expected UNSAT, got %v", status)
					}
					if len(lemmas) == 0 {
						t.Fatal("no lemmas emitted")
					}
					if err := Check(tc.f, lemmas); err != nil {
						t.Fatalf("proof rejected: %v", err)
					}
				})
			}
		})
	}
}

// TestProofUnderLBDReduction: the shipped engine minimizes every lemma and
// deletes learnts by glue; a log taken through OnLemma while both happen
// must still be a RUP refutation. The cap is tightened so reductions fire
// many times on instances this small.
func TestProofUnderLBDReduction(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
	}{
		{"php7", gen.Pigeonhole(7)},
		{"r3-120", gen.RandomKSAT(120, 511, 3, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := solver.DefaultOptions()
			opts.MaxLearnts = 100
			status, lemmas, stats := solveWithProofUnder(t, tc.f, opts)
			if status != solver.StatusUNSAT {
				t.Fatalf("expected UNSAT, got %v", status)
			}
			if stats.Deleted == 0 {
				t.Fatal("no reduction deleted anything: the fixture does not cover reduceDB")
			}
			if err := Check(tc.f, lemmas); err != nil {
				t.Fatalf("proof rejected: %v", err)
			}
		})
	}
}

func TestSATRunNotRefutation(t *testing.T) {
	f := gen.RandomKSAT(40, 160, 3, 3)
	status, lemmas := solveWithProof(t, f)
	if status != solver.StatusSAT {
		t.Skip("instance not SAT at this seed")
	}
	if err := Check(f, lemmas); err == nil {
		t.Fatal("a SAT run's lemma stream must not certify UNSAT")
	}
}

func TestTamperedProofRejected(t *testing.T) {
	f := gen.Pigeonhole(7)
	_, lemmas := solveWithProof(t, f)
	// Inject a clause that is not implied: a bare unit forcing pigeon 1
	// out of hole 1 would be fine, but claiming variable 1 must be TRUE as
	// a unit is not derivable by propagation at the point of insertion.
	bogus := cnf.Clause{cnf.PosLit(0)}
	tampered := append([]cnf.Clause{bogus}, lemmas...)
	if err := Check(f, tampered); err == nil {
		t.Fatal("tampered proof accepted")
	}
	var ce *CheckError
	if err := Check(f, tampered); err != nil {
		var ok bool
		ce, ok = err.(*CheckError)
		if !ok || ce.LemmaIndex != 0 {
			t.Fatalf("wrong error: %v", err)
		}
	}
}

func TestTruncatedProofRejected(t *testing.T) {
	f := gen.Pigeonhole(7)
	_, lemmas := solveWithProof(t, f)
	if err := Check(f, lemmas[:len(lemmas)/4]); err == nil {
		t.Fatal("truncated proof accepted")
	}
}

func TestEmptyClauseLemmaEndsProof(t *testing.T) {
	// x & ~x: the clause set is refutable by propagation with no lemmas,
	// and an explicit empty clause is accepted immediately.
	f := cnf.NewFormula(1)
	f.Add(1).Add(-1)
	if err := Check(f, []cnf.Clause{{}}); err != nil {
		t.Fatalf("explicit empty clause rejected: %v", err)
	}
	if err := Check(f, nil); err != nil {
		t.Fatalf("propagation-refutable set rejected: %v", err)
	}
}

func TestCheckRejectsForSatisfiable(t *testing.T) {
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	if err := Check(f, nil); err == nil {
		t.Fatal("satisfiable formula certified UNSAT")
	}
}

func TestWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	pw := NewWriter(&buf)
	pw.Add(cnf.NewClause(1, -2))
	pw.Add(cnf.Clause{})
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if pw.Lemmas() != 2 {
		t.Fatalf("lemmas = %d", pw.Lemmas())
	}
	want := "1 -2 0\n0\n"
	if buf.String() != want {
		t.Fatalf("wrote %q, want %q", buf.String(), want)
	}
}

func TestParseDialects(t *testing.T) {
	in := "c comment\n1 -2 0\nd 3 0\n\n-1 0"
	lemmas, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(lemmas) != 2 {
		t.Fatalf("parsed %d lemmas, want 2 (deletion lines skipped)", len(lemmas))
	}
	if lemmas[1][0] != cnf.NegLit(0) {
		t.Fatalf("lemma 2 = %v", lemmas[1])
	}
	if _, err := Parse(strings.NewReader("1 x 0")); err == nil {
		t.Fatal("bad literal accepted")
	}
}

func TestCheckErrorStrings(t *testing.T) {
	e1 := &CheckError{LemmaIndex: 3, Reason: "r"}
	if !strings.Contains(e1.Error(), "lemma 3") {
		t.Error(e1.Error())
	}
	e2 := &CheckError{LemmaIndex: -1, Reason: "r"}
	if strings.Contains(e2.Error(), "lemma") {
		t.Error(e2.Error())
	}
}

// TestProofWithMinimization: the minimized engine's proofs must check too.
func TestProofWithMinimization(t *testing.T) {
	f := gen.Pigeonhole(7)
	opts := solver.Fidelity2003()
	opts.MinimizeLearnts = true
	status, lemmas, _ := solveWithProofUnder(t, f, opts)
	if status != solver.StatusUNSAT {
		t.Fatalf("got %v", status)
	}
	if err := Check(f, lemmas); err != nil {
		t.Fatalf("minimized proof rejected: %v", err)
	}
}
