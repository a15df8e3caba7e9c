package solver

import (
	"cmp"
	"errors"
	"slices"

	"gridsat/internal/cnf"
)

// Subproblem describes one half of a split search space — the message a
// donor client sends to a recipient (paper Figure 2 and Figure 3's message
// (3)). The recipient reconstructs a solver from the shared base formula,
// the assumption literals, and whatever learned clauses the donor chose to
// forward.
type Subproblem struct {
	// NumVars is the variable count of the base formula.
	NumVars int
	// Assumptions are the level-0 literals defining the subspace: the
	// donor's level-0 assignments plus the complement of its first
	// decision.
	Assumptions []cnf.Lit
	// Learnts are donor learned clauses forwarded to seed the recipient's
	// database (filtered by length, like shared clauses).
	Learnts []cnf.Clause
	// Cube is the guiding path: the split literals from the root (empty)
	// down to this subproblem, no implied units. Its length d is the depth,
	// so refuting it retires exactly 2^-d of the root search space, and the
	// cubes one split makes are pairwise contradictory.
	Cube []cnf.Lit
}

// ErrNothingToSplit is returned by Split when the solver has no decision
// to fork on (decision level 0).
var ErrNothingToSplit = errors.New("solver: no decision level to split")

// Split implements the paper's Figure-2 stack transformation. The donor
// backtracks to its first decision level, promotes that level into the
// permanent level-0 assignments (committing to its first decision), and
// returns the complementary Subproblem: level-0 assignments plus the
// complement of the first decision. Donor and recipient then cover
// disjoint halves of the original search space.
//
// learntMaxLen bounds the learned clauses copied into the subproblem
// (0 forwards none); learntMaxCount caps how many are forwarded.
func (s *Solver) Split(learntMaxLen, learntMaxCount int) (*Subproblem, error) {
	if s.status != StatusUnknown {
		return nil, errors.New("solver: cannot split a decided problem")
	}
	if s.DecisionLevel() == 0 {
		return nil, ErrNothingToSplit
	}
	firstDecision := s.trail[s.trailLim[0]]

	// Recipient: level-0 assignments + complement of the first decision.
	level0 := s.trail[:s.trailLim[0]]
	sub := &Subproblem{NumVars: s.nVars}
	sub.Assumptions = make([]cnf.Lit, 0, len(level0)+1)
	sub.Assumptions = append(sub.Assumptions, level0...)
	sub.Assumptions = append(sub.Assumptions, firstDecision.Not())
	sub.Learnts = s.ExportLearnts(learntMaxLen, learntMaxCount)
	// Both halves of the split descend one level in the guiding-path tree:
	// the recipient takes the complement branch, and the donor's promoted
	// first decision is a new path commitment of its own.
	sub.Cube = slices.Concat(s.path, []cnf.Lit{firstDecision.Not()})
	s.path = slices.Concat(s.path, []cnf.Lit{firstDecision})

	// Donor: promote decision level 1 into level 0 and shift every higher
	// level down by one, exactly as Figure 2 shows — the donor keeps its
	// current search position; only the ownership of the first decision
	// changes. The promoted assignments are a commitment to this half of
	// the search space — logically new assumptions — so they are tainted
	// and clauses that later depend on them stay local to this client.
	end := len(s.trail)
	if len(s.trailLim) > 1 {
		end = s.trailLim[1]
	}
	for i := s.trailLim[0]; i < end; i++ {
		v := s.trail[i].Var()
		s.level[v] = 0
		s.taint(v)
	}
	for i := end; i < len(s.trail); i++ {
		s.level[s.trail[i].Var()]--
	}
	s.trailLim = s.trailLim[1:]
	s.lastSimplifyTrail = -1 // level 0 grew: force the next simplify pass
	s.stats.Splits++
	// The promoted assignments may now satisfy clauses permanently; the
	// next level-0 pass prunes them (Figure 2's clause removal).
	return sub, nil
}

// ExportLearnts returns copies of live learned clauses with length at most
// maxLen (0 disables), up to maxCount (0 means no cap), best first — the
// donor half of the paper's clause-sharing policy during splits. Candidates
// are ranked by LBD (glue) recorded at learn time and by length within the
// same glue, so a low-glue long clause beats a high-glue short one; when a
// count cap applies, the clauses dropped are the worst-ranked ones.
func (s *Solver) ExportLearnts(maxLen, maxCount int) []cnf.Clause {
	if maxLen <= 0 {
		return nil
	}
	var refs []ClauseRef
	for _, r := range s.learnts {
		if s.ca.Deleted(r) || s.ca.Size(r) > maxLen {
			continue
		}
		refs = append(refs, r)
	}
	s.sortRefsByQuality(refs)
	if maxCount > 0 && len(refs) > maxCount {
		refs = refs[:maxCount]
	}
	total := 0
	for _, r := range refs {
		total += s.ca.Size(r)
	}
	// One slab for every exported literal, each clause capped at its own
	// length so an append to it can never reach its neighbour.
	slab := make([]cnf.Lit, 0, total)
	out := make([]cnf.Clause, len(refs))
	for i, r := range refs {
		start := len(slab)
		for j, n := 0, s.ca.Size(r); j < n; j++ {
			slab = append(slab, s.ca.Lit(r, j))
		}
		out[i] = slab[start:len(slab):len(slab)]
	}
	return out
}

// sortRefsByQuality orders clause refs by (LBD, length) ascending — the
// export ranking — keeping age order among equals. An LBD of 0 means
// "never recorded" and ranks last.
func (s *Solver) sortRefsByQuality(refs []ClauseRef) {
	key := func(r ClauseRef) uint64 {
		lbd := s.ca.LBD(r)
		if lbd == 0 {
			lbd = maxLBD + 1
		}
		return uint64(lbd)<<32 | uint64(s.ca.Size(r))
	}
	slices.SortStableFunc(refs, func(a, b ClauseRef) int { return cmp.Compare(key(a), key(b)) })
}

// NewFromSubproblem reconstructs a recipient solver: the base formula plus
// the subproblem's assumptions (installed at level 0) and forwarded learned
// clauses. The returned solver may already be decided (StatusUNSAT) when
// the assumptions conflict with the formula.
func NewFromSubproblem(base *cnf.Formula, sub *Subproblem, opts Options) (*Solver, error) {
	if base.NumVars != sub.NumVars {
		return nil, errors.New("solver: subproblem variable count mismatch")
	}
	s := New(base, opts)
	s.path = sub.Cube
	if s.status != StatusUnknown {
		return s, nil
	}
	if err := s.Assume(sub.Assumptions...); err != nil {
		return nil, err
	}
	if err := s.ImportClausesLocal(sub.Learnts); err != nil {
		return nil, err
	}
	return s, nil
}
