package cnf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewClause(t *testing.T) {
	c := NewClause(1, -2, 3)
	want := Clause{PosLit(0), NegLit(1), PosLit(2)}
	if len(c) != len(want) {
		t.Fatalf("len = %d, want %d", len(c), len(want))
	}
	for i := range want {
		if c[i] != want[i] {
			t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestNormalizeDedups(t *testing.T) {
	c := NewClause(3, 1, 3, -2, 1)
	out, taut := c.Normalize()
	if taut {
		t.Fatal("non-tautology reported as tautology")
	}
	if len(out) != 3 {
		t.Fatalf("normalized length = %d, want 3: %v", len(out), out)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] >= out[i] {
			t.Errorf("not strictly sorted: %v", out)
		}
	}
}

func TestNormalizeTautology(t *testing.T) {
	c := NewClause(1, -2, -1)
	if _, taut := c.Normalize(); !taut {
		t.Error("tautology not detected")
	}
}

func TestNormalizeEmpty(t *testing.T) {
	out, taut := Clause{}.Normalize()
	if taut || len(out) != 0 {
		t.Error("empty clause mishandled")
	}
}

func TestClauseEval(t *testing.T) {
	c := NewClause(1, -2)
	a := NewAssignment(2)
	if c.Eval(a) != Undef {
		t.Error("unassigned clause should be Undef")
	}
	a.Set(NegLit(0)) // var1=false: literal 1 false
	if c.Eval(a) != Undef {
		t.Error("one false one undef should be Undef")
	}
	a.Set(PosLit(1)) // var2=true: literal -2 false
	if c.Eval(a) != False {
		t.Error("all-false clause should be False")
	}
	a.Set(PosLit(0))
	if c.Eval(a) != True {
		t.Error("satisfied clause should be True")
	}
}

func TestClauseKeyCanonical(t *testing.T) {
	a := NewClause(3, -1, 2)
	b := NewClause(2, 3, -1)
	if a.Key() != b.Key() {
		t.Errorf("keys differ for same clause: %q vs %q", a.Key(), b.Key())
	}
	c := NewClause(2, 3, 1)
	if a.Key() == c.Key() {
		t.Error("keys equal for different clauses")
	}
}

func TestClauseKeyDoesNotMutate(t *testing.T) {
	c := NewClause(3, -1, 2)
	orig := c.Clone()
	_ = c.Key()
	for i := range c {
		if c[i] != orig[i] {
			t.Fatal("Key mutated the clause")
		}
	}
}

func TestClauseString(t *testing.T) {
	if got := NewClause(1, -2).String(); got != "(1 -2)" {
		t.Errorf("String = %q", got)
	}
}

// Property: Normalize preserves the clause's truth value under every
// complete assignment (tautologies are always true).
func TestNormalizeSemanticsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nVars = 5
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(6)
		c := make(Clause, n)
		for i := range c {
			c[i] = MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 1)
		}
		norm, taut := c.Clone().Normalize()
		for mask := 0; mask < 1<<nVars; mask++ {
			a := NewAssignment(nVars)
			for v := 0; v < nVars; v++ {
				a[v] = FromBool(mask&(1<<v) != 0)
			}
			orig := c.Eval(a)
			var got LBool
			if taut {
				got = True
			} else {
				got = norm.Eval(a)
			}
			if orig != got {
				t.Fatalf("Normalize changed semantics of %v under %v: %v vs %v", c, a, orig, got)
			}
		}
	}
}

// Property: a clause evaluates True under an assignment iff some literal is true.
func TestClauseEvalProperty(t *testing.T) {
	prop := func(lits []int8, seed int64) bool {
		var c Clause
		for _, l := range lits {
			if l == 0 {
				continue
			}
			d := int(l)
			if d > 20 {
				d = 20
			}
			if d < -20 {
				d = -20
			}
			c = append(c, LitFromDIMACS(d))
		}
		rng := rand.New(rand.NewSource(seed))
		a := NewAssignment(21)
		for v := range a {
			a[v] = FromBool(rng.Intn(2) == 1)
		}
		anyTrue := false
		for _, l := range c {
			if a.LitValue(l) == True {
				anyTrue = true
			}
		}
		got := c.Eval(a)
		if len(c) == 0 {
			return got == False
		}
		return (got == True) == anyTrue
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFingerprintOrderIndependence: any permutation of the same literal
// multiset fingerprints identically — the property the clause-sharing
// dedup windows rely on, since senders and receivers may hold the same
// clause with different literal orders.
func TestFingerprintOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		c := make(Clause, 1+rng.Intn(12))
		for i := range c {
			c[i] = Lit(rng.Intn(4000))
		}
		want := c.Fingerprint()
		p := c.Clone()
		for swap := 0; swap < 5; swap++ {
			i, j := rng.Intn(len(p)), rng.Intn(len(p))
			p[i], p[j] = p[j], p[i]
			if got := p.Fingerprint(); got != want {
				t.Fatalf("permutation changed fingerprint: %v vs %v", p, c)
			}
		}
	}
}

// TestFingerprintDistinguishes spot-checks that nearby clauses — differing
// in one literal, in length, or in sign — fingerprint differently. (The
// function is a hash: collisions are possible, just not between these
// deliberately adjacent shapes.)
func TestFingerprintDistinguishes(t *testing.T) {
	base := NewClause(1, -2, 3)
	variants := []Clause{
		NewClause(1, -2),       // shorter
		NewClause(1, -2, 3, 4), // longer
		NewClause(1, 2, 3),     // flipped sign
		NewClause(1, -2, 4),    // different literal
		NewClause(1, -2, 3, 3), // duplicated literal
		{},                     // empty
	}
	seen := map[uint64]string{base.Fingerprint(): base.String()}
	for _, v := range variants {
		fp := v.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%v collides with %s", v, prev)
		}
		seen[fp] = v.String()
	}
}
