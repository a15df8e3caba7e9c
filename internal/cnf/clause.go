package cnf

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// MaxClauseSize is the most literals a clause may hold: ParseDIMACS
// rejects a longer one, the wire decoder never builds one, and the
// solver's clause header has room for exactly this many.
const MaxClauseSize = 1<<20 - 1

// Clause is a disjunction of literals. The zero value is the empty clause,
// which is unsatisfiable.
type Clause []Lit

// NewClause builds a clause from DIMACS literals (±1-based, no terminating 0).
func NewClause(dimacs ...int) Clause {
	c := make(Clause, 0, len(dimacs))
	for _, n := range dimacs {
		c = append(c, LitFromDIMACS(n))
	}
	return c
}

// Slab carves clauses out of shared literal chunks, so a builder of many
// clauses pays a few allocations instead of one per clause. Each chunk
// doubles the last, from 64 up to a million literals, and is never less
// than twice the clause that did not fit; a full chunk is left to the
// clauses carved from it. The zero value is ready to use.
type Slab struct{ lits []Lit }

// Carve returns a clause of n zero literals, capped at its own length so
// an append to it can never reach its neighbour.
func (s *Slab) Carve(n int) Clause {
	start := len(s.lits)
	if n > cap(s.lits)-start {
		s.lits, start = make([]Lit, 0, nextChunk(cap(s.lits), n)), 0
	}
	end := start + n
	s.lits = s.lits[:end]
	return Clause(s.lits[start:end:end])
}

// nextChunk is the capacity of the literal chunk that follows one of
// capacity cur when a clause of need literals does not fit.
func nextChunk(cur, need int) int {
	return max(64, 2*need, min(2*cur, 1<<20))
}

// Clone returns an independent copy of c.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// Normalize sorts the literals, removes duplicates, and reports whether the
// clause is a tautology (contains both a literal and its complement).
// A tautologous clause is always satisfied and should be dropped by callers.
// The returned clause aliases c's storage.
func (c Clause) Normalize() (Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	slices.Sort(c)
	out := c[:1]
	for _, l := range c[1:] {
		last := out[len(out)-1]
		if l == last {
			continue // duplicate
		}
		if l == last.Not() {
			return c, true // x and ~x are adjacent after sorting
		}
		out = append(out, l)
	}
	return out, false
}

// Eval evaluates the clause under a (possibly partial) assignment:
// True if some literal is true, False if all literals are false,
// Undef otherwise.
func (c Clause) Eval(a Assignment) LBool {
	undef := false
	for _, l := range c {
		switch a.LitValue(l) {
		case True:
			return True
		case Undef:
			undef = true
		}
	}
	if undef {
		return Undef
	}
	return False
}

// String renders the clause as space-separated DIMACS literals in parentheses.
func (c Clause) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, l := range c {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(l.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Fingerprint returns a 64-bit order-independent fingerprint of the
// clause: two clauses with the same literal multiset map to the same
// value regardless of literal order. GridSAT's clause-sharing pipeline
// uses fingerprints for bounded duplicate suppression, where a rare
// collision only costs one best-effort share — unlike Key, which is
// exact but allocates.
func (c Clause) Fingerprint() uint64 {
	var sum, xor uint64
	for _, l := range c {
		m := mix64(uint64(l) + 0x9e3779b97f4a7c15)
		sum += m
		xor ^= m
	}
	return mix64(sum ^ bits.RotateLeft64(xor, 32) ^ uint64(len(c))<<1)
}

// mix64 is the SplitMix64 finalizer, a cheap full-avalanche mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Key returns a canonical comparable key for a clause, used to deduplicate
// shared clauses across GridSAT clients. The clause is not modified.
func (c Clause) Key() string {
	s := c.Clone()
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var b strings.Builder
	b.Grow(len(s) * 4)
	for i, l := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.String())
	}
	return b.String()
}
