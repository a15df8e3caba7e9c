package cnf_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// referenceParseDIMACS is the line-and-field parser ParseDIMACS replaced,
// kept verbatim as the definition of the accepted language, the error
// texts and the line numbers.
func referenceParseDIMACS(r io.Reader) (*cnf.Formula, error) {
	perr := func(line int, format string, args ...any) error {
		return &cnf.ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
	}
	f := &cnf.Formula{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var cur cnf.Clause
	var comments []string
	lineNo := 0
	sawHeader := false
scan:
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch line[0] {
		case 'c':
			text := strings.TrimSpace(strings.TrimPrefix(line, "c"))
			if text != "" {
				comments = append(comments, text)
			}
			continue
		case 'p':
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, perr(lineNo, "malformed problem line %q", line)
			}
			nv, err := strconv.Atoi(fields[2])
			if err != nil || nv < 0 {
				return nil, perr(lineNo, "bad variable count %q", fields[2])
			}
			if _, err := strconv.Atoi(fields[3]); err != nil {
				return nil, perr(lineNo, "bad clause count %q", fields[3])
			}
			f.NumVars = nv
			sawHeader = true
			continue
		case '%':
			break scan
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, perr(lineNo, "bad literal %q", tok)
			}
			if n == 0 {
				f.AddClause(cur)
				cur = nil
				continue
			}
			if sawHeader && max(n, -n) > f.NumVars {
				return nil, perr(lineNo, "literal %d exceeds declared %d variables", n, f.NumVars)
			}
			cur = append(cur, cnf.LitFromDIMACS(n))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cnf: reading DIMACS: %w", err)
	}
	if len(cur) > 0 {
		f.AddClause(cur)
	}
	f.Comment = strings.Join(comments, "\n")
	return f, nil
}

// sameParse runs both parsers over in and fails unless they agree on the
// formula, or on the error down to its text and line.
func sameParse(t *testing.T, name string, in []byte) {
	t.Helper()
	want, wantErr := referenceParseDIMACS(bytes.NewReader(in))
	got, gotErr := cnf.ParseDIMACS(bytes.NewReader(in))
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error %v, reference %v\ninput %q", name, gotErr, wantErr, clip(in))
	}
	if wantErr != nil {
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%s: error value %#v, reference %#v", name, gotErr, wantErr)
		}
		return
	}
	if got.NumVars != want.NumVars || got.Comment != want.Comment || len(got.Clauses) != len(want.Clauses) {
		t.Fatalf("%s: parsed %d vars %d clauses comment %q, reference %d vars %d clauses comment %q\ninput %q",
			name, got.NumVars, len(got.Clauses), got.Comment, want.NumVars, len(want.Clauses), want.Comment, clip(in))
	}
	for i := range want.Clauses {
		if !slices.Equal(got.Clauses[i], want.Clauses[i]) {
			t.Fatalf("%s: clause %d is %v, reference %v\ninput %q", name, i, got.Clauses[i], want.Clauses[i], clip(in))
		}
	}
}

func clip(in []byte) []byte {
	if len(in) > 200 {
		return in[:200]
	}
	return in
}

func genFamilies() map[string]*cnf.Formula {
	return map[string]*cnf.Formula{
		"random3":    gen.RandomKSAT(200, 860, 3, 1),
		"planted":    gen.PlantedKSAT(160, 600, 3, 2),
		"pigeonhole": gen.Pigeonhole(8),
		"parity":     gen.ParityChain(60, 3, true, 3),
		"xor":        gen.XORSystem(40, 30, false, 4),
		"miter":      gen.AdderMiter(48),
		"miter-bug":  gen.AdderMiterBug(32),
		"counter":    gen.Counter(6, 8, 13),
		"coloring":   gen.GraphColoring(40, 120, 3, 5),
		"hanoi":      gen.Hanoi(4, 5),
		"factoring":  gen.FactoringLike(12, 3599),
		"latin":      gen.LatinSquare(8, 20, 6),
	}
}

func TestParseDIMACSMatchesReferenceOnGenerators(t *testing.T) {
	for name, f := range genFamilies() {
		var buf bytes.Buffer
		if err := cnf.WriteDIMACS(&buf, f); err != nil {
			t.Fatal(err)
		}
		sameParse(t, name, buf.Bytes())
		// The same text through the dialect's tolerated variations.
		text := buf.String()
		sameParse(t, name+"/crlf", []byte(strings.ReplaceAll(text, "\n", "\r\n")))
		sameParse(t, name+"/tabs", []byte(strings.ReplaceAll(text, " ", "\t ")))
		sameParse(t, name+"/joined", []byte(strings.ReplaceAll(text, " 0\n", " 0 ")))
		sameParse(t, name+"/no-final-zero", []byte(strings.TrimSuffix(text, " 0\n")))
		if i := strings.Index(text, "p cnf"); i >= 0 {
			sameParse(t, name+"/no-header", []byte(text[:i]+text[i+strings.Index(text[i:], "\n")+1:]))
		}
		sameParse(t, name+"/percent", []byte(text+"%\n0\ngarbage\n"))
	}
}

func TestParseDIMACSMatchesReferenceOnOddInputs(t *testing.T) {
	cases := []string{
		"",
		"\n\n",
		"p cnf x 2\n",
		"p cnf 2\n",
		"p cnf 2 y\n",
		"p cnf -1 2\n",
		"p dnf 2 2\n",
		"  p   cnf  2   1  \n1 2 0\n",
		"p cnf 2 1\n1 zz 0\n",
		"p cnf 2 1\n1 5 0\n",
		"p cnf 2 1\n1 -5 0\n",
		"p cnf 2 2\n1 0\n-1 2",
		"p cnf 2 1\n1 2 0\n%\n0\ngarbage",
		"p cnf 1 1\n0\n",
		"p cnf 3 2\n\n1 -2\n\n 3 0 2\n0\n",
		"1 2 0\n-3 0\n",
		"5 0\np cnf 2 1\n1 0\n", // header after clauses: the reference's NumVars quirk
		"p cnf 2 1\np cnf 3 1\n3 0\n",
		"c\nc  spaced  \ncnf looks like a comment\n1 0\n",
		"p cnf 3 1\n+1 -2 +3 0\n",
		"p cnf 3 1\n-0\n",
		"p cnf 3 1\n00 001 0\n",
		"p cnf 3 1\n1 - 2 0\n",
		"p cnf 3 1\n1 --2 0\n",
		"p cnf 3 1\n1-2 0\n",
		"p cnf 3 1\n1 2- 0\n",
		"p cnf 3 1\n1 2 0 c trailing\n",
		"p cnf 3 1\n1 0x2 0\n",
		"p cnf 3 1\n1 2_0 0\n",
		"1 99999999999999999999 0\n",
		"p cnf 3 1\n1 99999999999999999999 0\n",
		"p cnf 3 1\n000000000000000000000001 0\n",
		"p cnf 3 1\n123456789012345678 0\n",
		"p cnf 3 1\n1234567890123456789 0\n",
		"p cnf 3 1\n1\u00a02 0\n",                            // no-break space separates like any space
		"\u00a0p cnf 3 1\n \u00a0 1 2 0 \u0085\n\u2003c x\n", // and is trimmed off both ends
		" \n  \n1 0\n",
		"  c still a comment\n1 0\n",
		"p cnf 3 1\n1 \xff 0\n",
		"p cnf 3 1\n\xff\n",
		"p cnf 3 1\n1\v2\f3 0\n",
		"p cnf 3 1\r\n1 2 0\r\n",
		"p cnf 3 1\n1 2 0\x00\n",
	}
	for i, in := range cases {
		sameParse(t, fmt.Sprintf("case %d", i), []byte(in))
	}
}

// Mutating generator output byte by byte reaches the error paths at every
// position a hand-written case would not think of.
func TestParseDIMACSMatchesReferenceOnMutations(t *testing.T) {
	var buf bytes.Buffer
	if err := cnf.WriteDIMACS(&buf, gen.RandomKSAT(30, 90, 3, 9)); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	alphabet := []byte("0123456789-+ \t\r\n\v\fcp%xz_.\x00\xc2\xa0\xff")
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 3000; iter++ {
		in := bytes.Clone(base)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			switch pos := rng.Intn(len(in)); rng.Intn(3) {
			case 0:
				in[pos] = alphabet[rng.Intn(len(alphabet))]
			case 1:
				in = append(in[:pos], in[pos+1:]...)
			default:
				in = append(in[:pos], append([]byte{alphabet[rng.Intn(len(alphabet))]}, in[pos:]...)...)
			}
		}
		sameParse(t, fmt.Sprintf("mutation %d", iter), in)
	}
}

// A clause carved from the shared slab must not reach its neighbour when
// appended to.
func TestParseDIMACSClausesDoNotAlias(t *testing.T) {
	f, err := cnf.ParseDIMACS(strings.NewReader("p cnf 4 2\n1 2 0\n3 4 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(f.Clauses[0], cnf.LitFromDIMACS(-4))
	if !slices.Equal(f.Clauses[1], cnf.NewClause(3, 4)) {
		t.Fatalf("appending to clause 0 rewrote clause 1: %v", f.Clauses[1])
	}
}

func BenchmarkParseDIMACS(b *testing.B) {
	var buf bytes.Buffer
	for _, f := range []*cnf.Formula{gen.RandomKSAT(20000, 86000, 3, 1), gen.AdderMiter(256), gen.Pigeonhole(12)} {
		if err := cnf.WriteDIMACS(&buf, f); err != nil {
			b.Fatal(err)
		}
		buf.WriteString("%\n") // one formula per parse below
	}
	docs := bytes.Split(buf.Bytes(), []byte("%\n"))
	for name, parse := range map[string]func(io.Reader) (*cnf.Formula, error){
		"scanner": cnf.ParseDIMACS, "reference": referenceParseDIMACS,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(buf.Len()))
			for i := 0; i < b.N; i++ {
				for _, doc := range docs {
					if _, err := parse(bytes.NewReader(doc)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
