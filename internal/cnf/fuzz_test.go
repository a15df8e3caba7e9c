package cnf

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzParseDIMACS checks the parser never panics and that everything it
// accepts round-trips through WriteDIMACS: parsing the written text gives
// back the same variable count, comment and clauses, literal for literal.
func FuzzParseDIMACS(f *testing.F) {
	f.Add("p cnf 3 2\n1 -2 0\n2 3 0\n")
	f.Add("c comment\n1 2\n-3 0")
	f.Add("p cnf 0 0\n")
	f.Add("%\n0")
	f.Add("p cnf 2 1\n0\n")
	f.Add("c two\nc  lines \np cnf 12 2\n-12 10 1 0\n0\n")
	f.Fuzz(func(t *testing.T, input string) {
		parsed, err := ParseDIMACS(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDIMACS(&buf, parsed); err != nil {
			t.Fatalf("accepted formula failed to serialize: %v", err)
		}
		again, err := ParseDIMACS(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if again.NumClauses() != parsed.NumClauses() {
			t.Fatalf("roundtrip clause count %d != %d", again.NumClauses(), parsed.NumClauses())
		}
		if again.NumVars != parsed.NumVars || again.Comment != parsed.Comment {
			t.Fatalf("roundtrip gave %d vars, comment %q; want %d, %q", again.NumVars, again.Comment, parsed.NumVars, parsed.Comment)
		}
		for i := range parsed.Clauses {
			if !slices.Equal(again.Clauses[i], parsed.Clauses[i]) {
				t.Fatalf("clause %d is %v after the roundtrip, want %v", i, again.Clauses[i], parsed.Clauses[i])
			}
		}
	})
}

// FuzzNormalize checks Normalize is panic-free, idempotent, and sorted.
func FuzzNormalize(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{1, 1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := make(Clause, 0, len(raw))
		for _, b := range raw {
			v := Var(b >> 1)
			c = append(c, MkLit(v, b&1 == 1))
		}
		norm, taut := c.Normalize()
		if taut {
			return
		}
		for i := 1; i < len(norm); i++ {
			if norm[i-1] >= norm[i] {
				t.Fatalf("not strictly sorted: %v", norm)
			}
		}
		again, taut2 := norm.Clone().Normalize()
		if taut2 || len(again) != len(norm) {
			t.Fatalf("Normalize not idempotent: %v -> %v", norm, again)
		}
	})
}
