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
// even if larger than the maximum variable used. Malformed inputs, and a
// clause longer than MaxClauseSize, return a *ParseError carrying the
// offending line.
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
		if err := p.endClause(); err != nil {
			return nil, err
		}
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
		return p.endClause()
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
// open clause to a fresh one, grown as a Slab grows.
func (p *dimacsParser) newSlab() {
	open := p.slab[p.start:]
	p.slab = append(make([]Lit, 0, nextChunk(cap(p.slab), len(open))), open...)
	p.start = 0
}

// endClause carves the open clause off the slab, capped at its own length
// so an append to it can never reach its neighbour. A clause longer than
// MaxClauseSize is an error on the line that closes it.
func (p *dimacsParser) endClause() error {
	var c Clause
	if end := len(p.slab); end > p.start {
		if end-p.start > MaxClauseSize {
			return parseErrf(p.line, "clause of %d literals exceeds the limit of %d", end-p.start, MaxClauseSize)
		}
		c = Clause(p.slab[p.start:end:end])
		p.start = end
	}
	p.f.AddClause(c)
	return nil
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

// WriteDIMACS writes f in DIMACS format. Each clause line is formatted
// into one reused buffer, so writing costs no allocation per clause or
// literal.
func WriteDIMACS(w io.Writer, f *Formula) error {
	bw := bufio.NewWriter(w)
	if f.Comment != "" {
		// bufio's errors stick: a failed comment write shows at the header.
		for _, line := range strings.Split(f.Comment, "\n") {
			bw.WriteString("c ")
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
	}
	if _, err := fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses)); err != nil {
		return err
	}
	var line []byte
	for _, c := range f.Clauses {
		line = line[:0]
		for _, l := range c {
			if l.Neg() {
				line = append(line, '-')
			}
			line = appendUint(line, uint(l.Var())+1)
			line = append(line, ' ')
		}
		line = append(line, '0', '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendUint appends u in decimal. Variable numbers are short, so a digit
// at a time beats strconv's general formatting here.
func appendUint(b []byte, u uint) []byte {
	var d [20]byte
	i := len(d) - 1
	for u >= 10 {
		d[i] = byte('0' + u%10)
		u /= 10
		i--
	}
	d[i] = byte('0' + u)
	return append(b, d[i:]...)
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
