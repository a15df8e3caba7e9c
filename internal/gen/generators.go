package gen

import (
	"fmt"
	"math/rand"

	"gridsat/internal/cnf"
)

// RandomKSAT generates a uniform random k-SAT formula with nVars variables
// and nClauses clauses (no duplicate variables within a clause). At clause
// ratio ~4.26 for k=3 the instances sit at the phase transition, standing in
// for the paper's hand-made/random category.
func RandomKSAT(nVars, nClauses, k int, seed int64) *cnf.Formula {
	if k > nVars {
		panic("gen: RandomKSAT needs k <= nVars")
	}
	rng := rand.New(rand.NewSource(seed))
	f := cnf.NewFormula(nVars)
	f.Comment = fmt.Sprintf("random %d-SAT n=%d m=%d seed=%d", k, nVars, nClauses, seed)
	used := make([]bool, nVars)
	c := make([]int, 0, k)
	for i := 0; i < nClauses; i++ {
		c = drawClause(rng, used, c[:0], k)
		f.Add(c...)
	}
	return f
}

// drawClause appends k DIMACS literals over k distinct variables, each
// drawn uniformly with a random sign, to c. used is all false on entry and
// on return.
func drawClause(rng *rand.Rand, used []bool, c []int, k int) []int {
	for len(c) < k {
		v := rng.Intn(len(used))
		if used[v] {
			continue
		}
		used[v] = true
		if rng.Intn(2) == 1 {
			c = append(c, -(v + 1))
		} else {
			c = append(c, v+1)
		}
	}
	for _, l := range c {
		used[abs(l)-1] = false
	}
	return c
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// Pigeonhole generates PHP(holes+1, holes): holes+1 pigeons into holes
// holes, one pigeon per hole. Unsatisfiable, and famously hard for
// resolution-based solvers — the paper's hand-made UNSAT stand-in.
func Pigeonhole(holes int) *cnf.Formula {
	pigeons := holes + 1
	v := func(p, h int) int { return p*holes + h + 1 }
	f := cnf.NewFormula(pigeons * holes)
	f.Comment = fmt.Sprintf("pigeonhole PHP(%d,%d) UNSAT", pigeons, holes)
	// Every pigeon sits somewhere.
	c := make([]int, holes)
	for p := 0; p < pigeons; p++ {
		for h := range c {
			c[h] = v(p, h)
		}
		f.Add(c...)
	}
	// No two pigeons share a hole.
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.Add(-v(p1, h), -v(p2, h))
			}
		}
	}
	return f
}

// PlantedKSAT generates a guaranteed-satisfiable random k-SAT instance
// that stays hard for CDCL: every clause is drawn uniformly subject to
// being satisfied under BOTH a hidden assignment and its complement
// ("doubly planted"). Ordinary planting is easy for clause-driven
// heuristics because clause polarities leak the hidden assignment; the
// double constraint removes that bias, so difficulty grows like unplanted
// random k-SAT while satisfiability is certain. Used for the suite's
// hard-SAT rows (par32-like), where natural hard-SAT seeds are rare.
func PlantedKSAT(nVars, nClauses, k int, seed int64) *cnf.Formula {
	if k > nVars || k < 2 {
		panic("gen: PlantedKSAT needs 2 <= k <= nVars")
	}
	rng := rand.New(rand.NewSource(seed))
	hidden := make([]bool, nVars)
	for i := range hidden {
		hidden[i] = rng.Intn(2) == 1
	}
	f := cnf.NewFormula(nVars)
	f.Comment = fmt.Sprintf("doubly-planted %d-SAT n=%d m=%d seed=%d", k, nVars, nClauses, seed)
	used := make([]bool, nVars)
	c := make([]int, 0, k)
	for len(f.Clauses) < nClauses {
		c = drawClause(rng, used, c[:0], k)
		satA, satNotA := false, false
		for _, l := range c {
			if hidden[abs(l)-1] != (l < 0) { // literal true under the plant
				satA = true
			} else {
				satNotA = true
			}
		}
		if satA && satNotA {
			f.Add(c...)
		}
	}
	return f
}

// PigeonholeShuffled is Pigeonhole with variables renamed by a seeded
// permutation and clauses shuffled. Same proof complexity, different
// solver trace — used to derive several distinct rows of the benchmark
// suite from the pigeonhole family.
func PigeonholeShuffled(holes int, seed int64) *cnf.Formula {
	base := Pigeonhole(holes)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(base.NumVars)
	f := cnf.NewFormula(base.NumVars)
	f.Comment = fmt.Sprintf("%s shuffled seed=%d", base.Comment, seed)
	order := rng.Perm(len(base.Clauses))
	var out []int
	for _, ci := range order {
		out = out[:0]
		for _, l := range base.Clauses[ci] {
			out = append(out, cnf.MkLit(cnf.Var(perm[l.Var()]), l.Neg()).DIMACS())
		}
		f.Add(out...)
	}
	return f
}

// xorClause adds CNF clauses for l1 ^ l2 ^ ... ^ ln = rhs over DIMACS
// literals, by enumerating the 2^(n-1) odd/even sign patterns. Only suitable
// for small n (we use n <= 4).
func xorClauses(f *cnf.Formula, vars []int, rhs bool) {
	n := len(vars)
	if n == 0 {
		if rhs {
			f.Add() // 0 = 1: empty (false) clause
		}
		return
	}
	c := make([]int, n)
	for mask := 0; mask < 1<<n; mask++ {
		// A clause (with signs = mask) excludes the assignment where every
		// literal is false; that assignment has parity = number of negated
		// vars. Exclude exactly the assignments with parity != rhs.
		neg := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				neg++ // literal appears positive => excluded point has var=false
			}
		}
		parity := (n - neg) % 2 // number of true vars in the excluded point
		want := 0
		if rhs {
			want = 1
		}
		if parity%2 == want {
			continue // excluded point satisfies the XOR; don't exclude it
		}
		for i, v := range vars {
			c[i] = v
			if mask&(1<<i) != 0 {
				c[i] = -v
			}
		}
		f.Add(c...)
	}
}

// xorEq is one GF(2) linear equation: XOR of vars (1-based) = rhs.
type xorEq struct {
	vars []int
	rhs  bool
}

// xorConsistent checks by Gaussian elimination over GF(2) whether the
// system has a solution over n variables.
func xorConsistent(n int, eqs []xorEq) bool {
	words := (n + 64) / 64 // last bit column holds the rhs
	rows := make([][]uint64, len(eqs))
	for i, e := range eqs {
		row := make([]uint64, words+1)
		for _, v := range e.vars {
			row[(v-1)/64] ^= 1 << uint((v-1)%64)
		}
		if e.rhs {
			row[words] = 1
		}
		rows[i] = row
	}
	r := 0
	for col := 0; col < n && r < len(rows); col++ {
		w, b := col/64, uint(col%64)
		pivot := -1
		for i := r; i < len(rows); i++ {
			if rows[i][w]&(1<<b) != 0 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[r], rows[pivot] = rows[pivot], rows[r]
		for i := 0; i < len(rows); i++ {
			if i != r && rows[i][w]&(1<<b) != 0 {
				for j := range rows[i] {
					rows[i][j] ^= rows[r][j]
				}
			}
		}
		r++
	}
	// Inconsistent iff some row reduced to 0 = 1.
	for _, row := range rows {
		zero := true
		for j := 0; j < words; j++ {
			if row[j] != 0 {
				zero = false
				break
			}
		}
		if zero && row[words] == 1 {
			return false
		}
	}
	return true
}

// buildXORFormula encodes a checked XOR system as CNF. When consistent is
// false, it flips equation RHS values (verified by Gaussian elimination)
// until the system is inconsistent, so the UNSAT status is guaranteed while
// the contradiction still requires chaining many equations.
func buildXORFormula(n int, eqs []xorEq, consistent bool, comment string) *cnf.Formula {
	if !consistent {
		made := false
		for i := range eqs {
			eqs[i].rhs = !eqs[i].rhs
			if !xorConsistent(n, eqs) {
				made = true
				break
			}
			eqs[i].rhs = !eqs[i].rhs // undo, try next
		}
		if !made {
			// Full row rank: append the XOR of the first two equations with
			// flipped RHS, which is inconsistent by construction.
			mask := map[int]bool{}
			rhs := true // flipped
			for _, e := range eqs[:2] {
				for _, v := range e.vars {
					mask[v] = !mask[v]
				}
				if e.rhs {
					rhs = !rhs
				}
			}
			var vars []int
			for v, on := range mask {
				if on {
					vars = append(vars, v)
				}
			}
			eqs = append(eqs, xorEq{vars: vars, rhs: rhs})
		}
	}
	f := cnf.NewFormula(n)
	f.Comment = comment
	for _, e := range eqs {
		xorClauses(f, e.vars, e.rhs)
	}
	return f
}

// ParityChain builds a chained parity problem in the style of the par32
// family: a backbone of overlapping 3-variable XOR equations over x1..xn
// plus nChains random cross-links. With consistent=true the system has a
// planted solution; with consistent=false a verified RHS flip makes it
// unsatisfiable only through long parity-reasoning chains.
func ParityChain(n, nChains int, consistent bool, seed int64) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	hidden := make([]bool, n+1)
	for i := range hidden {
		hidden[i] = rng.Intn(2) == 1
	}
	plant := func(vars []int) xorEq {
		rhs := false
		for _, v := range vars {
			if hidden[v] {
				rhs = !rhs
			}
		}
		return xorEq{vars: vars, rhs: rhs}
	}
	var eqs []xorEq
	// Backbone chain x_i ^ x_{i+1} ^ x_{i+2}, stepping by 2 so adjacent
	// equations share one variable.
	for i := 1; i+2 <= n; i += 2 {
		eqs = append(eqs, plant([]int{i, i + 1, i + 2}))
	}
	for c := 0; c < nChains; c++ {
		p := rng.Perm(n)[:3]
		eqs = append(eqs, plant([]int{p[0] + 1, p[1] + 1, p[2] + 1}))
	}
	comment := fmt.Sprintf("parity chain n=%d chains=%d sat=%v seed=%d", n, nChains, consistent, seed)
	return buildXORFormula(n, eqs, consistent, comment)
}

// XORSystem generates a random system of m 3-variable XOR equations over n
// variables (Urquhart-style expander). With consistent=true the system has
// a planted solution; otherwise a verified RHS flip makes the instance
// UNSAT via long XOR reasoning chains — hard for CDCL.
func XORSystem(n, m int, consistent bool, seed int64) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	hidden := make([]bool, n+1)
	for i := range hidden {
		hidden[i] = rng.Intn(2) == 1
	}
	eqs := make([]xorEq, 0, m)
	for e := 0; e < m; e++ {
		p := rng.Perm(n)[:3]
		vars := []int{p[0] + 1, p[1] + 1, p[2] + 1}
		rhs := false
		for _, v := range vars {
			if hidden[v] {
				rhs = !rhs
			}
		}
		eqs = append(eqs, xorEq{vars: vars, rhs: rhs})
	}
	comment := fmt.Sprintf("xor system n=%d m=%d sat=%v seed=%d", n, m, consistent, seed)
	return buildXORFormula(n, eqs, consistent, comment)
}

// AdderMiter builds an equivalence-checking miter between a ripple-carry
// adder and a carry-select adder of the given bit width. The two circuits
// are functionally identical, so asserting that some output differs yields
// an UNSAT instance — the industrial (Npipe-like) verification stand-in.
func AdderMiter(width int) *cnf.Formula {
	c := NewCircuit()
	a := c.NewVars(width)
	b := c.NewVars(width)
	s1, c1 := c.RippleAdder(a, b)
	s2, c2 := c.CarrySelectAdder(a, b)
	c.AssertAnyDiff(append(append([]int{}, s1...), c1), append(append([]int{}, s2...), c2))
	f := c.Formula()
	f.Comment = fmt.Sprintf("adder equivalence miter width=%d UNSAT", width)
	return f
}

// AdderMiterBug is AdderMiter with a planted wiring bug (one full adder's
// carry input swapped for a constant), so the miter is satisfiable — the
// Npipe_bug-like stand-in.
func AdderMiterBug(width int) *cnf.Formula {
	if width < 2 {
		panic("gen: AdderMiterBug needs width >= 2")
	}
	c := NewCircuit()
	a := c.NewVars(width)
	b := c.NewVars(width)
	s1, c1 := c.RippleAdder(a, b)
	// Buggy second implementation: drop the carry chain at bit width/2.
	carry := c.ConstFalse()
	s2 := make([]int, width)
	for i := 0; i < width; i++ {
		if i == width/2 {
			carry = c.ConstFalse() // bug: carry chain broken
		}
		s2[i], carry = c.FullAdder(a[i], b[i], carry)
	}
	c.AssertAnyDiff(append(append([]int{}, s1...), c1), append(append([]int{}, s2...), carry))
	f := c.Formula()
	f.Comment = fmt.Sprintf("buggy adder miter width=%d SAT", width)
	return f
}

// Counter builds a bounded-model-checking-style instance for a w-bit
// register incrementing every step: after steps increments starting from 0,
// the counter must equal target. SAT iff target == steps mod 2^w. Mirrors
// the cnt09/cnt10 benchmarks (sequential circuit unrolling).
func Counter(w, steps int, target uint64) *cnf.Formula {
	c := NewCircuit()
	state := make([]int, w)
	zero := c.ConstFalse()
	for i := range state {
		state[i] = zero
	}
	one := c.ConstTrue()
	incr := make([]int, w)
	incr[0] = one
	for i := 1; i < w; i++ {
		incr[i] = zero
	}
	for s := 0; s < steps; s++ {
		state, _ = c.RippleAdder(state, incr)
	}
	for i := 0; i < w; i++ {
		if target&(1<<uint(i)) != 0 {
			c.AddClause(state[i])
		} else {
			c.AddClause(-state[i])
		}
	}
	f := c.Formula()
	f.Comment = fmt.Sprintf("counter w=%d steps=%d target=%d", w, steps, target)
	return f
}

// GraphColoring generates a k-coloring instance for a random graph with
// nNodes nodes and nEdges edges. Dense graphs with small k are UNSAT;
// sparse ones are SAT — the rand_net-like networked stand-in.
func GraphColoring(nNodes, nEdges, k int, seed int64) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	v := func(node, color int) int { return node*k + color + 1 }
	f := cnf.NewFormula(nNodes * k)
	f.Comment = fmt.Sprintf("graph %d-coloring nodes=%d edges=%d seed=%d", k, nNodes, nEdges, seed)
	c := make([]int, k)
	for n := 0; n < nNodes; n++ {
		for col := range c {
			c[col] = v(n, col)
		}
		f.Add(c...)
		for c1 := 0; c1 < k; c1++ {
			for c2 := c1 + 1; c2 < k; c2++ {
				f.Add(-v(n, c1), -v(n, c2))
			}
		}
	}
	seen := map[[2]int]bool{}
	for e := 0; e < nEdges; {
		a, b := rng.Intn(nNodes), rng.Intn(nNodes)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		for col := 0; col < k; col++ {
			f.Add(-v(a, col), -v(b, col))
		}
		e++
	}
	return f
}

// Hanoi builds a planning-style chained-implication instance loosely
// modeling a sequential puzzle: a sequence of moves (one-hot per step) must
// transform an initial state into a goal state under frame axioms. The size
// grows with steps; SAT iff steps >= minMoves. It stands in for the
// hanoi5/hanoi6 family (long, SAT, sequential structure).
//
// The "puzzle" is a token walking a line of cells 0..cells-1, one move per
// step, must reach the last cell. minMoves = cells-1.
func Hanoi(cells, steps int) *cnf.Formula {
	// at(t, c): token at cell c at time t.
	at := func(t, c int) int { return t*cells + c + 1 }
	f := cnf.NewFormula((steps + 1) * cells)
	f.Comment = fmt.Sprintf("hanoi-like walk cells=%d steps=%d", cells, steps)
	// Initial and goal states.
	f.Add(at(0, 0))
	for c := 1; c < cells; c++ {
		f.Add(-at(0, c))
	}
	f.Add(at(steps, cells-1))
	c := make([]int, 0, cells)
	for t := 0; t <= steps; t++ {
		// Exactly one position per time step.
		c = c[:0]
		for p := 0; p < cells; p++ {
			c = append(c, at(t, p))
		}
		f.Add(c...)
		for p1 := 0; p1 < cells; p1++ {
			for p2 := p1 + 1; p2 < cells; p2++ {
				f.Add(-at(t, p1), -at(t, p2))
			}
		}
	}
	// Transition: from cell p you may stay or move to p±1.
	for t := 0; t < steps; t++ {
		for p := 0; p < cells; p++ {
			c = append(c[:0], -at(t, p), at(t+1, p))
			if p > 0 {
				c = append(c, at(t+1, p-1))
			}
			if p < cells-1 {
				c = append(c, at(t+1, p+1))
			}
			f.Add(c...)
		}
	}
	return f
}

// FactoringLike builds a multiplication circuit a*b = product for w-bit
// operands and asserts the product equals the given value, with a and b
// constrained to be > 1 (nontrivial factors). SAT iff value has a
// factorization into two w-bit factors > 1. Stands in for the
// ezfact/pyhala-braun factoring benchmarks.
func FactoringLike(w int, value uint64) *cnf.Formula {
	c := NewCircuit()
	a := c.NewVars(w)
	b := c.NewVars(w)
	prod := c.multiply(a, b)
	for i := 0; i < len(prod); i++ {
		bit := value&(1<<uint(i)) != 0
		if bit {
			c.AddClause(prod[i])
		} else {
			c.AddClause(-prod[i])
		}
	}
	// Nontrivial factors: a >= 2 and b >= 2 (some bit above bit 0 is set).
	c.AddClause(a[1:]...)
	c.AddClause(b[1:]...)
	f := c.Formula()
	f.Comment = fmt.Sprintf("factoring-like w=%d value=%d", w, value)
	return f
}

// multiply returns the 2w-bit product of two w-bit vectors via shift-and-add.
func (c *Circuit) multiply(a, b []int) []int {
	w := len(a)
	zero := c.ConstFalse()
	acc := make([]int, 2*w)
	for i := range acc {
		acc[i] = zero
	}
	for i := 0; i < w; i++ {
		// partial = (b & a[i]) << i, width 2w
		part := make([]int, 2*w)
		for j := range part {
			part[j] = zero
		}
		for j := 0; j < w; j++ {
			part[i+j] = c.And(a[i], b[j])
		}
		acc, _ = c.RippleAdder(acc, part)
	}
	return acc
}

// LatinSquare generates a Latin-square completion instance (the quasigroup
// family behind the suite's qg2-8 row): an n×n grid where every row and
// column contains each symbol exactly once, with `prefill` seeded fixed
// cells. Low prefill counts are satisfiable; contradictory prefills are
// rejected by regeneration, so instances are SAT by construction unless
// over-constrained by a large prefill.
func LatinSquare(n, prefill int, seed int64) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	v := func(r, c, k int) int { return (r*n+c)*n + k + 1 }
	f := cnf.NewFormula(n * n * n)
	f.Comment = fmt.Sprintf("latin square n=%d prefill=%d seed=%d", n, prefill, seed)
	atLeastOne := func(lits []int) { f.Add(lits...) }
	atMostOne := func(lits []int) {
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				f.Add(-lits[i], -lits[j])
			}
		}
	}
	buf := make([]int, n)
	collect := func(fill func(i int) int) []int {
		for i := range buf {
			buf[i] = fill(i)
		}
		return buf
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			cell := collect(func(k int) int { return v(r, c, k) })
			atLeastOne(cell) // every cell holds a symbol
			atMostOne(cell)  // at most one symbol per cell
		}
	}
	for k := 0; k < n; k++ {
		for r := 0; r < n; r++ {
			row := collect(func(c int) int { return v(r, c, k) })
			atLeastOne(row)
			atMostOne(row) // symbol k exactly once per row
		}
		for c := 0; c < n; c++ {
			col := collect(func(r int) int { return v(r, c, k) })
			atLeastOne(col)
			atMostOne(col) // and exactly once per column
		}
	}
	// Prefill distinct cells from a hidden valid square (r+c mod n), so the
	// constraints stay satisfiable.
	cells := rng.Perm(n * n)
	if prefill > len(cells) {
		prefill = len(cells)
	}
	for _, cell := range cells[:prefill] {
		r, c := cell/n, cell%n
		f.Add(v(r, c, (r+c)%n))
	}
	return f
}
