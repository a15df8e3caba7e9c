package cnf_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// referenceWriteDIMACS is the writer WriteDIMACS replaced, kept verbatim as
// the definition of its output: one formatted string per literal.
func referenceWriteDIMACS(w io.Writer, f *cnf.Formula) error {
	bw := bufio.NewWriter(w)
	if f.Comment != "" {
		for _, line := range strings.Split(f.Comment, "\n") {
			if _, err := fmt.Fprintf(bw, "c %s\n", line); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	for _, c := range f.Clauses {
		for _, l := range c {
			if _, err := bw.WriteString(strconv.Itoa(l.DIMACS())); err != nil {
				return err
			}
			if err := bw.WriteByte(' '); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("0\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sameWrite fails unless WriteDIMACS and the reference writer emit the
// same bytes for f.
func sameWrite(t *testing.T, name string, f *cnf.Formula) {
	t.Helper()
	var got, want bytes.Buffer
	if err := cnf.WriteDIMACS(&got, f); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := referenceWriteDIMACS(&want, f); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("%s: output differs from the reference at byte %d of %d/%d: %q vs %q",
			name, i, got.Len(), want.Len(), clip(got.Bytes()[i:]), clip(want.Bytes()[i:]))
	}
}

func TestWriteDIMACSMatchesReference(t *testing.T) {
	for name, f := range genFamilies() {
		sameWrite(t, name, f)
	}
	for _, inst := range gen.Suite() {
		sameWrite(t, inst.Name, inst.Build())
	}
	f := cnf.NewFormula(0).Add(1, -2).Add().Add(1<<20, -(1<<31 - 1), 9, -10, 99, 100, -999, 1000)
	for _, comment := range []string{"", "one line", "two\nlines", "\nleading and trailing\n", "c\n\n  spaced  \n"} {
		f.Comment = comment
		sameWrite(t, fmt.Sprintf("comment %q", comment), f)
	}
	sameWrite(t, "empty formula", &cnf.Formula{NumVars: 7})
}

// Writing into a sink must cost no allocation per clause or literal.
func TestWriteDIMACSAllocatesPerFormulaNotPerLiteral(t *testing.T) {
	f := gen.RandomKSAT(300, 1278, 3, 1)
	allocs := testing.AllocsPerRun(5, func() {
		if err := cnf.WriteDIMACS(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("WriteDIMACS of %d clauses allocated %.0f times", f.NumClauses(), allocs)
	}
}

// A clause carved by Formula.Add must not reach its neighbour when
// appended to.
func TestFormulaAddClausesDoNotAlias(t *testing.T) {
	f := cnf.NewFormula(0).Add(1, 2).Add(3, 4)
	_ = append(f.Clauses[0], cnf.LitFromDIMACS(-4))
	if !slices.Equal(f.Clauses[1], cnf.NewClause(3, 4)) {
		t.Fatalf("appending to clause 0 rewrote clause 1: %v", f.Clauses[1])
	}
}

// longClause is a DIMACS file of one clause over n variables.
func longClause(n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "p cnf %d 1\n", n)
	for v := 1; v <= n; v++ {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(' ')
	}
	b.WriteString("0\n")
	return b.Bytes()
}

// A clause longer than MaxClauseSize is a parse error on the line that
// closes it, not a formula the solver cannot hold; one at the limit parses.
func TestParseDIMACSRejectsOverlongClause(t *testing.T) {
	in := longClause(cnf.MaxClauseSize + 1)
	_, err := cnf.ParseDIMACS(bytes.NewReader(in))
	var pe *cnf.ParseError
	if !errors.As(err, &pe) || pe.Line != 2 || !strings.Contains(pe.Msg, "exceeds the limit") {
		t.Fatalf("clause of %d literals: err = %v, want a ParseError on line 2", cnf.MaxClauseSize+1, err)
	}
	// Without its final 0 the clause ends with the input, on the same line.
	_, err = cnf.ParseDIMACS(bytes.NewReader(bytes.TrimSuffix(in, []byte("0\n"))))
	if !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("unterminated clause of %d literals: err = %v, want a ParseError on line 2", cnf.MaxClauseSize+1, err)
	}
	f, err := cnf.ParseDIMACS(bytes.NewReader(longClause(cnf.MaxClauseSize)))
	if err != nil || len(f.Clauses) != 1 || len(f.Clauses[0]) != cnf.MaxClauseSize {
		t.Fatalf("clause of %d literals: err = %v", cnf.MaxClauseSize, err)
	}
}

func BenchmarkWriteDIMACS(b *testing.B) {
	fs := []*cnf.Formula{gen.RandomKSAT(20000, 86000, 3, 1), gen.AdderMiter(256), gen.Pigeonhole(12)}
	var size int64
	for _, f := range fs {
		var buf bytes.Buffer
		if err := cnf.WriteDIMACS(&buf, f); err != nil {
			b.Fatal(err)
		}
		size += int64(buf.Len())
	}
	for name, write := range map[string]func(io.Writer, *cnf.Formula) error{
		"buffer": cnf.WriteDIMACS, "reference": referenceWriteDIMACS,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				for _, f := range fs {
					if err := write(io.Discard, f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
