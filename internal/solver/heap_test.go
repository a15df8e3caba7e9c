package solver

import (
	"math/rand"
	"testing"

	"gridsat/internal/cnf"
)

func TestHeapBasicOrder(t *testing.T) {
	act := []float64{5, 1, 9, 3}
	h := newLitHeap(act)
	for l := 0; l < 4; l++ {
		h.push(cnf.Lit(l))
	}
	wantOrder := []cnf.Lit{2, 0, 3, 1}
	for _, want := range wantOrder {
		got, ok := h.popMax()
		if !ok || got != want {
			t.Fatalf("popMax = %v, want %v", got, want)
		}
	}
	if _, ok := h.popMax(); ok {
		t.Fatal("popMax from empty heap succeeded")
	}
}

func TestHeapDuplicatePushIgnored(t *testing.T) {
	act := []float64{1, 2}
	h := newLitHeap(act)
	h.push(0)
	h.push(0)
	h.push(1)
	if h.size() != 2 {
		t.Fatalf("size = %d, want 2", h.size())
	}
}

func TestHeapUpdateAfterBump(t *testing.T) {
	act := []float64{1, 2, 3}
	h := newLitHeap(act)
	for l := 0; l < 3; l++ {
		h.push(cnf.Lit(l))
	}
	act[0] = 10
	h.update(0)
	if got, _ := h.popMax(); got != 0 {
		t.Fatalf("after bump popMax = %v, want 0", got)
	}
}

func TestHeapTieBreakDeterministic(t *testing.T) {
	act := []float64{7, 7, 7}
	h := newLitHeap(act)
	h.push(2)
	h.push(0)
	h.push(1)
	// Equal activity: lower literal index wins.
	if got, _ := h.popMax(); got != 0 {
		t.Fatalf("tie-break popMax = %v, want 0", got)
	}
}

func TestHeapRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(64)
		act := make([]float64, n)
		for i := range act {
			act[i] = float64(rng.Intn(16))
		}
		h := newLitHeap(act)
		for l := 0; l < n; l++ {
			h.push(cnf.Lit(l))
		}
		// Pop half, re-push some, pop all; verify non-increasing order with
		// the documented tie-break.
		var prev cnf.Lit
		prevSet := false
		var prevAct float64
		for {
			l, ok := h.popMax()
			if !ok {
				break
			}
			if prevSet {
				if act[l] > prevAct || (act[l] == prevAct && l < prev) {
					t.Fatalf("heap order violated: %v(%v) after %v(%v)", l, act[l], prev, prevAct)
				}
			}
			prev, prevAct, prevSet = l, act[l], true
		}
	}
}

func TestHeapPushAfterPop(t *testing.T) {
	act := []float64{4, 8}
	h := newLitHeap(act)
	h.push(0)
	h.push(1)
	l, _ := h.popMax()
	if l != 1 {
		t.Fatalf("got %v", l)
	}
	h.push(1) // simulate backtrack re-push
	if h.size() != 2 {
		t.Fatalf("size = %d, want 2", h.size())
	}
	if got, _ := h.popMax(); got != 1 {
		t.Fatalf("re-pushed literal lost: %v", got)
	}
}

// BenchmarkLitHeap is the VSIDS access mix of one conflict: a few bumps
// (activity up, sift up), then a decision's popMax and, as on backtrack,
// the literal pushed back.
func BenchmarkLitHeap(b *testing.B) {
	const n = 4000
	rng := rand.New(rand.NewSource(1))
	act := make([]float64, n)
	for i := range act {
		act[i] = rng.Float64()
	}
	h := newLitHeap(act)
	for l := 0; l < n; l++ {
		h.push(cnf.Lit(l))
	}
	inc := 0.01
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			l := cnf.Lit(rng.Intn(n))
			act[l] += inc
			h.update(l)
		}
		inc *= 1.0001
		top, _ := h.popMax()
		h.push(top)
	}
}
