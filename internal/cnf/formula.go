package cnf

import (
	"fmt"
	"slices"
)

// Formula is a CNF formula: a conjunction of clauses over NumVars variables.
type Formula struct {
	NumVars int
	Clauses []Clause
	// Comment is an optional free-form description (e.g. generator name and
	// parameters); it is emitted as DIMACS "c" lines.
	Comment string
	// slab holds the literals of the clauses Add builds.
	slab Slab
}

// NewFormula returns an empty formula over nVars variables.
func NewFormula(nVars int) *Formula { return &Formula{NumVars: nVars} }

// Add appends a clause built from DIMACS literals, growing NumVars as needed.
// The clause is carved from a literal slab the formula owns.
func (f *Formula) Add(dimacs ...int) *Formula {
	c := f.Carve(len(dimacs))
	for i, n := range dimacs {
		c[i] = LitFromDIMACS(n)
		if n = abs(n); n > f.NumVars {
			f.NumVars = n
		}
	}
	f.appendClause(c)
	return f
}

// Carve returns a clause of n zero literals carved from the formula's
// literal slab, for a builder that fills it in and places it in Clauses
// itself.
func (f *Formula) Carve(n int) Clause { return f.slab.Carve(n) }

// AddClause appends c, growing NumVars as needed. The formula keeps c
// itself, not a copy.
func (f *Formula) AddClause(c Clause) {
	for _, l := range c {
		if d := l.Var().DIMACS(); d > f.NumVars {
			f.NumVars = d
		}
	}
	f.appendClause(c)
}

// appendClause grows Clauses by doubling, as a Slab grows.
func (f *Formula) appendClause(c Clause) {
	if len(f.Clauses) == cap(f.Clauses) {
		f.Clauses = slices.Grow(f.Clauses, max(64, len(f.Clauses)))
	}
	f.Clauses = append(f.Clauses, c)
}

// NumClauses returns the clause count.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// NumLiterals returns the total literal count over all clauses.
func (f *Formula) NumLiterals() int {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	return n
}

// Clone returns a deep copy of f.
func (f *Formula) Clone() *Formula {
	out := &Formula{NumVars: f.NumVars, Comment: f.Comment}
	out.Clauses = make([]Clause, len(f.Clauses))
	for i, c := range f.Clauses {
		out.Clauses[i] = c.Clone()
	}
	return out
}

// Eval evaluates the whole formula under a partial assignment: False if any
// clause is falsified, True if all clauses are satisfied, Undef otherwise.
func (f *Formula) Eval(a Assignment) LBool {
	undef := false
	for _, c := range f.Clauses {
		switch c.Eval(a) {
		case False:
			return False
		case Undef:
			undef = true
		}
	}
	if undef {
		return Undef
	}
	return True
}

// Verify checks that a is a complete satisfying assignment for f. This is
// the check the GridSAT master runs on a reported solution before declaring
// SAT (paper §3.4). It returns a descriptive error on failure.
func (f *Formula) Verify(a Assignment) error {
	if len(a) < f.NumVars {
		return fmt.Errorf("cnf: assignment covers %d of %d variables", len(a), f.NumVars)
	}
	for i := 0; i < f.NumVars; i++ {
		if a[i] == Undef {
			return fmt.Errorf("cnf: variable %d unassigned", Var(i).DIMACS())
		}
	}
	for i, c := range f.Clauses {
		if c.Eval(a) != True {
			return fmt.Errorf("cnf: clause %d %v not satisfied", i+1, c)
		}
	}
	return nil
}

// Stats summarizes structural properties of a formula.
type Stats struct {
	Vars, Clauses, Literals int
	MinClauseLen            int
	MaxClauseLen            int
	UnitClauses, BinClauses int
	ClauseVarRatio          float64
}

// Stats computes structural statistics for f.
func (f *Formula) Stats() Stats {
	s := Stats{Vars: f.NumVars, Clauses: len(f.Clauses)}
	if len(f.Clauses) > 0 {
		s.MinClauseLen = len(f.Clauses[0])
	}
	for _, c := range f.Clauses {
		s.Literals += len(c)
		if len(c) < s.MinClauseLen {
			s.MinClauseLen = len(c)
		}
		if len(c) > s.MaxClauseLen {
			s.MaxClauseLen = len(c)
		}
		switch len(c) {
		case 1:
			s.UnitClauses++
		case 2:
			s.BinClauses++
		}
	}
	if f.NumVars > 0 {
		s.ClauseVarRatio = float64(len(f.Clauses)) / float64(f.NumVars)
	}
	return s
}
