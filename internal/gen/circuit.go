// Package gen produces deterministic synthetic SAT instances standing in for
// the SAT2002 competition benchmarks used in the GridSAT paper (which are
// not redistributable and not available offline). Each family mirrors a
// structural class from the paper's suite: industrial circuit miters
// (Npipe-like), counters (cntN-like), parity problems (par32-like), random
// networks (rand_net-like), pigeonhole/Urquhart hand-made problems, and
// random k-SAT. All generators are pure functions of their parameters and a
// seed, so every run of the benchmark harness sees identical formulas.
package gen

import "gridsat/internal/cnf"

// Circuit is a small Tseitin-encoding builder used by the circuit-flavored
// generators (adders, miters, counters). Every gate allocates a fresh
// variable and emits the standard CNF gate-consistency clauses.
type Circuit struct {
	f    *cnf.Formula
	next int // next fresh DIMACS variable number
}

// NewCircuit returns an empty circuit builder.
func NewCircuit() *Circuit {
	return &Circuit{f: cnf.NewFormula(0), next: 1}
}

// NewVar allocates a fresh input variable and returns its DIMACS number.
func (c *Circuit) NewVar() int {
	v := c.next
	c.next++
	if v > c.f.NumVars {
		c.f.NumVars = v
	}
	return v
}

// NewVars allocates n fresh variables.
func (c *Circuit) NewVars(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = c.NewVar()
	}
	return out
}

// AddClause appends a raw clause of DIMACS literals.
func (c *Circuit) AddClause(lits ...int) { c.f.Add(lits...) }

// And returns a variable constrained to a AND b.
func (c *Circuit) And(a, b int) int {
	o := c.NewVar()
	c.f.Add(-a, -b, o)
	c.f.Add(a, -o)
	c.f.Add(b, -o)
	return o
}

// Or returns a variable constrained to a OR b.
func (c *Circuit) Or(a, b int) int {
	o := c.NewVar()
	c.f.Add(a, b, -o)
	c.f.Add(-a, o)
	c.f.Add(-b, o)
	return o
}

// Xor returns a variable constrained to a XOR b.
func (c *Circuit) Xor(a, b int) int {
	o := c.NewVar()
	c.f.Add(-a, -b, -o)
	c.f.Add(a, b, -o)
	c.f.Add(a, -b, o)
	c.f.Add(-a, b, o)
	return o
}

// Not returns the DIMACS literal for NOT a (no new variable needed).
func (c *Circuit) Not(a int) int { return -a }

// Maj returns a variable constrained to the majority of a, b, cc
// (the carry function of a full adder).
func (c *Circuit) Maj(a, b, cc int) int {
	o := c.NewVar()
	// o is true iff at least two of a,b,cc are true.
	c.f.Add(-a, -b, o)
	c.f.Add(-a, -cc, o)
	c.f.Add(-b, -cc, o)
	c.f.Add(a, b, -o)
	c.f.Add(a, cc, -o)
	c.f.Add(b, cc, -o)
	return o
}

// FullAdder returns (sum, carry) variables for inputs a, b, cin.
func (c *Circuit) FullAdder(a, b, cin int) (sum, carry int) {
	sum = c.Xor(c.Xor(a, b), cin)
	carry = c.Maj(a, b, cin)
	return sum, carry
}

// RippleAdder adds two equal-width bit vectors (LSB first) and returns the
// sum bits plus the final carry-out.
func (c *Circuit) RippleAdder(a, b []int) (sum []int, carry int) {
	if len(a) != len(b) {
		panic("gen: RippleAdder operand widths differ")
	}
	carry = c.ConstFalse()
	sum = make([]int, len(a))
	for i := range a {
		sum[i], carry = c.FullAdder(a[i], b[i], carry)
	}
	return sum, carry
}

// CarrySelectAdder adds a and b using a different gate structure from
// RippleAdder (per-bit speculative carry computed both ways, then selected).
// Functionally identical to RippleAdder; used to build equivalence miters.
func (c *Circuit) CarrySelectAdder(a, b []int) (sum []int, carry int) {
	if len(a) != len(b) {
		panic("gen: CarrySelectAdder operand widths differ")
	}
	carry = c.ConstFalse()
	sum = make([]int, len(a))
	for i := range a {
		// Speculative sums for carry-in 0 and 1.
		s0 := c.Xor(a[i], b[i])
		s1 := c.Not(s0)
		c0 := c.And(a[i], b[i])
		c1 := c.Or(a[i], b[i])
		sum[i] = c.Mux(carry, s0, s1)
		carry = c.Mux(carry, c0, c1)
	}
	return sum, carry
}

// Mux returns a variable constrained to (sel ? hi : lo).
func (c *Circuit) Mux(sel, lo, hi int) int {
	o := c.NewVar()
	c.f.Add(sel, -lo, o)
	c.f.Add(sel, lo, -o)
	c.f.Add(-sel, -hi, o)
	c.f.Add(-sel, hi, -o)
	return o
}

// ConstFalse returns a variable constrained to false.
func (c *Circuit) ConstFalse() int {
	v := c.NewVar()
	c.f.Add(-v)
	return v
}

// ConstTrue returns a variable constrained to true.
func (c *Circuit) ConstTrue() int {
	v := c.NewVar()
	c.f.Add(v)
	return v
}

// AssertEqual constrains a == b.
func (c *Circuit) AssertEqual(a, b int) {
	c.f.Add(-a, b)
	c.f.Add(a, -b)
}

// AssertAnyDiff constrains at least one pair (a[i], b[i]) to differ —
// the miter output of an equivalence-checking problem.
func (c *Circuit) AssertAnyDiff(a, b []int) {
	if len(a) != len(b) {
		panic("gen: AssertAnyDiff operand widths differ")
	}
	diff := make([]int, len(a))
	for i := range a {
		diff[i] = c.Xor(a[i], b[i])
	}
	c.f.Add(diff...)
}

// Formula finalizes and returns the built formula.
func (c *Circuit) Formula() *cnf.Formula { return c.f }
