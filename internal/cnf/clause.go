package cnf

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
)

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
