package workloads

import (
	"bytes"
	"testing"

	"gridsat/internal/cnf"
)

func TestEveryWorkloadLoads(t *testing.T) {
	for _, name := range Names {
		w, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range w.Jobs {
			if seen[s.Name] {
				t.Errorf("%s: job name %s used twice", name, s.Name)
			}
			seen[s.Name] = true
			if (w.Kind == KindSim) != (s.Testbed != "") {
				t.Errorf("%s: job %s: testbed is for sim workloads, and required there", name, s.Name)
			}
		}
	}
	if _, err := Load("no-such"); err == nil {
		t.Error("unknown workload must not load")
	}
	if _, err := ProbeInstances(1); err != nil {
		t.Error(err)
	}
}

// Generation is a pure function of (seed, pass): byte-identical across
// two calls, different for another seed or pass, same job order included.
func TestGenerationIsDeterministic(t *testing.T) {
	w, err := Load("serve-small")
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Pass(7, 2), w.Pass(7, 2)
	otherSeed, otherPass := w.Pass(8, 2), w.Pass(7, 3)
	differs := func(x, y []Instance) bool {
		for i := range x {
			if x[i].Slot != y[i].Slot || !bytes.Equal(x[i].DIMACS, y[i].DIMACS) {
				return true
			}
		}
		return false
	}
	if differs(a, b) {
		t.Error("two calls with the same seed and pass gave different inputs")
	}
	if !differs(a, otherSeed) || !differs(a, otherPass) {
		t.Error("another seed or pass gave the same inputs")
	}
}

func TestScrambleKeepsTheFormulaUpToRenaming(t *testing.T) {
	base := cnf.NewFormula(4)
	base.Add(1, -2).Add(2, 3, -4).Add(-1, 4).Add(-3)
	s := Scramble(base, 42)
	if s.NumVars != base.NumVars || len(s.Clauses) != len(base.Clauses) {
		t.Fatalf("scramble changed the shape: %d vars %d clauses", s.NumVars, len(s.Clauses))
	}
	// Both have exactly the same number of models (brute force over 16).
	count := func(f *cnf.Formula) int {
		n := 0
		for m := 0; m < 16; m++ {
			var lits []int
			for v := 1; v <= 4; v++ {
				if m&(1<<(v-1)) != 0 {
					lits = append(lits, v)
				} else {
					lits = append(lits, -v)
				}
			}
			if CheckModel(f, lits) == nil {
				n++
			}
		}
		return n
	}
	if a, b := count(base), count(s); a != b || a == 0 {
		t.Errorf("model counts differ: base %d, scrambled %d", a, b)
	}
}

func TestCheckModel(t *testing.T) {
	f := cnf.NewFormula(3)
	f.Add(1, 2).Add(-1, 3)
	for _, c := range []struct {
		lits []int
		ok   bool
	}{
		{[]int{1, -2, 3}, true},
		{[]int{-1, 2}, true}, // a partial model that still satisfies every clause
		{[]int{1, -2, -3}, false},
		{[]int{1, -1, 3}, false},
		{[]int{1, 2, 4}, false},
		{nil, false},
	} {
		if err := CheckModel(f, c.lits); (err == nil) != c.ok {
			t.Errorf("CheckModel(%v) = %v, want ok=%v", c.lits, err, c.ok)
		}
	}
}

func TestParseSolution(t *testing.T) {
	v, m, err := ParseSolution([]byte("c hi\ns SATISFIABLE\nv 1 -2\nv 3 0\n"))
	if err != nil || v != "SAT" || len(m) != 3 || m[1] != -2 {
		t.Errorf("got %q %v %v", v, m, err)
	}
	if v, _, _ := ParseSolution([]byte("s UNSATISFIABLE\nc wall=1s\n")); v != "UNSAT" {
		t.Errorf("got %q, want UNSAT", v)
	}
	if v, _, _ := ParseSolution([]byte("s UNKNOWN\n")); v != "UNKNOWN" {
		t.Errorf("got %q, want UNKNOWN", v)
	}
	if _, _, err := ParseSolution([]byte("gridsat: boom\n")); err == nil {
		t.Error("output without an s line must be an error")
	}
}
