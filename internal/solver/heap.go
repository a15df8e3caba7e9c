package solver

import "gridsat/internal/cnf"

// litHeap is a binary max-heap over literals keyed by VSIDS activity, with
// a position index for O(log n) increase-key. Chaff picks the unassigned
// literal with the highest counter; assigned literals are filtered lazily
// by the caller and re-pushed on backtrack.
type litHeap struct {
	act  []float64 // shares the solver's activity array, which is never reallocated
	data []cnf.Lit
	pos  []int32 // position of each literal in data, -1 if absent
}

func newLitHeap(act []float64) litHeap {
	pos := make([]int32, len(act))
	for i := range pos {
		pos[i] = -1
	}
	return litHeap{act: act, pos: pos}
}

// above reports whether literal x with activity ax outranks literal y with
// activity ay. Deterministic tie-break: the lower literal wins.
func above(ax float64, x cnf.Lit, ay float64, y cnf.Lit) bool {
	return ax > ay || ax == ay && x < y
}

// up and down sift a hole rather than swapping: the moving literal is held
// in locals and written once, where it lands. The comparisons made and the
// resulting order are those of the textbook swap-based sift.

func (h *litHeap) up(i int) {
	act, data, pos := h.act, h.data, h.pos
	x := data[i]
	ax := act[x]
	for i > 0 {
		parent := (i - 1) / 2
		y := data[parent]
		if !above(ax, x, act[y], y) {
			break
		}
		data[i], pos[y] = y, int32(i)
		i = parent
	}
	data[i], pos[x] = x, int32(i)
}

func (h *litHeap) down(i int) {
	act, data, pos := h.act, h.data, h.pos
	x := data[i]
	ax := act[x]
	for {
		c := 2*i + 1
		if c >= len(data) {
			break
		}
		y := data[c]
		if r := c + 1; r < len(data) {
			if z := data[r]; above(act[z], z, act[y], y) {
				c, y = r, z
			}
		}
		if !above(act[y], y, ax, x) {
			break
		}
		data[i], pos[y] = y, int32(i)
		i = c
	}
	data[i], pos[x] = x, int32(i)
}

// push inserts l if absent; no-op when already present.
func (h *litHeap) push(l cnf.Lit) {
	if h.pos[l] >= 0 {
		return
	}
	h.data = append(h.data, l)
	h.pos[l] = int32(len(h.data) - 1)
	h.up(len(h.data) - 1)
}

// update restores heap order after l's activity increased.
func (h *litHeap) update(l cnf.Lit) {
	if p := h.pos[l]; p >= 0 {
		h.up(int(p))
	}
}

// popMax removes and returns the highest-activity literal.
func (h *litHeap) popMax() (cnf.Lit, bool) {
	if len(h.data) == 0 {
		return cnf.NoLit, false
	}
	top := h.data[0]
	last := len(h.data) - 1
	h.data[0] = h.data[last]
	h.data = h.data[:last]
	h.pos[top] = -1
	if last > 0 {
		h.down(0)
	}
	return top, true
}

// size returns the number of literals currently in the heap.
func (h *litHeap) size() int { return len(h.data) }
