package cnf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseError reports a malformed DIMACS input with the 1-based line it
// was detected on, so callers (e.g. the HTTP submit endpoint) can point
// the user at the offending position instead of a bare message.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("cnf: line %d: %s", e.Line, e.Msg)
}

// parseErrf builds a ParseError with a formatted message.
func parseErrf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ParseDIMACS reads a CNF formula in DIMACS format. It tolerates the common
// dialect variations: comment lines anywhere, clauses spanning multiple
// lines, a missing final 0, and "%"-terminated SATLIB files. The "p cnf"
// header is optional; when present, the declared variable count is honored
// even if larger than the maximum variable used. Malformed inputs return
// a *ParseError carrying the offending line.
//
// It sits on the submit path of the service and at the start of every
// solve, so clause lines are scanned byte by byte into one literal slab
// the clauses are carved from; whatever is not plain ASCII digits, '-' and
// blanks (a '+' sign, a 19-digit number, Unicode space, garbage) goes
// through strings.Fields and strconv.Atoi, which define the language.
func ParseDIMACS(r io.Reader) (*Formula, error) {
	p := dimacsParser{f: &Formula{}, maxVar: math.MaxInt32}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 64*1024*1024) // lines up to 64 MB
	var comments []string
scan:
	for sc.Scan() {
		p.line++
		line := sc.Bytes()
		i := skipBlanks(line, 0)
		if i < len(line) && line[i] >= utf8.RuneSelf {
			line, i = bytes.TrimSpace(line), 0 // may open with Unicode space
		}
		if i == len(line) {
			continue
		}
		switch line[i] {
		case 'c':
			if text := bytes.TrimSpace(line[i+1:]); len(text) != 0 {
				comments = append(comments, string(text))
			}
		case 'p':
			if err := p.header(string(bytes.TrimSpace(line[i:]))); err != nil {
				return nil, err
			}
		case '%':
			// SATLIB terminator; everything after is ignored.
			break scan
		default:
			if err := p.clauseLine(line[i:]); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cnf: reading DIMACS: %w", err)
	}
	if len(p.slab) > p.start { // final clause without terminating 0
		p.endClause()
	}
	p.f.Comment = strings.Join(comments, "\n")
	return p.f, nil
}

// dimacsParser is ParseDIMACS's state between lines.
type dimacsParser struct {
	f         *Formula
	line      int
	sawHeader bool
	// maxVar bounds what clauseLine may append without asking literal: the
	// header's variable count, or what fits a Lit while there is none.
	maxVar int
	// slab holds the literals of the clauses carved so far in this chunk
	// and, from start on, of the clause still open. A full slab is left to
	// the clauses that point into it and the open clause moves to a new one.
	slab  []Lit
	start int
}

func (p *dimacsParser) header(line string) error {
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[1] != "cnf" {
		return parseErrf(p.line, "malformed problem line %q", line)
	}
	nv, err := strconv.Atoi(fields[2])
	if err != nil || nv < 0 {
		return parseErrf(p.line, "bad variable count %q", fields[2])
	}
	nc, err := strconv.Atoi(fields[3])
	if err != nil {
		return parseErrf(p.line, "bad clause count %q", fields[3])
	}
	p.f.NumVars = nv
	p.sawHeader = true
	p.maxVar = nv
	if p.f.Clauses == nil && nc > 0 {
		// A hint, not a promise: capped so a lying header costs little.
		p.f.Clauses = make([]Clause, 0, min(nc, 1<<18))
	}
	return nil
}

// clauseLine scans one line of literals. The fast path takes tokens of the
// form -?[0-9]{1,18} delimited by ASCII blanks; at the first token that is
// anything else the rest of the line goes to the general tokenizer.
func (p *dimacsParser) clauseLine(line []byte) error {
	for i := skipBlanks(line, 0); i < len(line); i = skipBlanks(line, i) {
		tok := i
		neg := line[i] == '-'
		if neg {
			i++
		}
		digits := i
		n := 0
		for i < len(line) && line[i]-'0' <= 9 {
			n = n*10 + int(line[i]-'0')
			i++
		}
		if i == digits || i-digits > 18 || (i < len(line) && !isBlank(line[i])) {
			for _, t := range strings.Fields(string(line[tok:])) {
				n, err := strconv.Atoi(t)
				if err != nil {
					return parseErrf(p.line, "bad literal %q", t)
				}
				if err := p.literal(n); err != nil {
					return err
				}
			}
			return nil
		}
		if n != 0 && n <= p.maxVar && len(p.slab) < cap(p.slab) {
			// What literal does for nearly every token, without the call.
			l := Lit(n-1) << 1
			if neg {
				l |= 1
			}
			p.slab = append(p.slab, l)
			continue
		}
		if neg {
			n = -n
		}
		if err := p.literal(n); err != nil {
			return err
		}
	}
	return nil
}

// literal takes one parsed number: 0 closes the open clause, anything else
// joins it.
func (p *dimacsParser) literal(n int) error {
	if n == 0 {
		p.endClause()
		return nil
	}
	if p.sawHeader && abs(n) > p.f.NumVars {
		return parseErrf(p.line, "literal %d exceeds declared %d variables", n, p.f.NumVars)
	}
	if len(p.slab) == cap(p.slab) {
		p.newSlab()
	}
	p.slab = append(p.slab, LitFromDIMACS(n))
	return nil
}

// newSlab leaves the full slab to the clauses carved from it and moves the
// open clause to a fresh one, doubling up to a million literals.
func (p *dimacsParser) newSlab() {
	open := p.slab[p.start:]
	p.slab = append(make([]Lit, 0, max(4096, 2*len(open), min(2*cap(p.slab), 1<<20))), open...)
	p.start = 0
}

// endClause carves the open clause off the slab, capped at its own length
// so an append to it can never reach its neighbour.
func (p *dimacsParser) endClause() {
	var c Clause
	if end := len(p.slab); end > p.start {
		c = Clause(p.slab[p.start:end:end])
		p.start = end
	}
	p.f.AddClause(c)
}

// isBlank reports the ASCII bytes unicode.IsSpace accepts: space and
// '\t' through '\r'.
func isBlank(b byte) bool {
	return b == ' ' || (b <= '\r' && b >= '\t')
}

func skipBlanks(line []byte, i int) int {
	for i < len(line) && isBlank(line[i]) {
		i++
	}
	return i
}

// ParseDIMACSFile reads a DIMACS CNF file from disk.
func ParseDIMACSFile(path string) (*Formula, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return ParseDIMACS(fd)
}

// WriteDIMACS writes f in DIMACS format.
func WriteDIMACS(w io.Writer, f *Formula) error {
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

// WriteDIMACSFile writes f to a DIMACS CNF file on disk.
func WriteDIMACSFile(path string, f *Formula) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDIMACS(fd, f); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
