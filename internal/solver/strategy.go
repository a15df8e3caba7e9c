package solver

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"gridsat/internal/cnf"
)

// This file is the pluggable split-strategy engine. The paper hard-codes
// one way to shed work — the Figure-2 first-decision stack transform,
// which forks exactly one binary subproblem — but later systems showed the
// split policy is a tuning knob of its own: Dissolve-style dilemma
// splitting fans out 2^k cofactors over k jointly chosen variables, and
// Kotthoff & Moore observed that *bad* split variables are reliably
// identifiable even when good ones are not, motivating a veto filter over
// the candidate pool. A SplitStrategy owns the whole transaction: which
// variables to fork on, how many subproblems to emit, and the guiding-path
// depth bookkeeping that keeps the cluster's coverage estimate exact.

// SplitStrategy decides how a donor solver sheds work. Split returns a
// batch of disjoint Subproblems; together with the donor's remaining
// search space they partition exactly the donor's pre-split space, so the
// combined verdict of donor + batch equals a single solver's verdict.
//
// Guiding-path bookkeeping is owned by the strategy: a strategy that forks
// the space over k variables (2^k cofactors, donor keeps one) must extend
// the donor's path by its own k split literals and stamp every shipped
// Subproblem with the pre-split path plus that cofactor's k literals, so
// that closing all 2^k cofactors at depth d+k accounts for exactly 2^-d of
// the root search space.
type SplitStrategy interface {
	// Split carves a batch of subproblems off the donor s, mutating s to
	// own only its remaining cofactor. learntMaxLen/learntMaxCount bound
	// the learned clauses forwarded with each subproblem, as in
	// Solver.Split. Returns ErrNothingToSplit when s has nothing to shed.
	Split(s *Solver, learntMaxLen, learntMaxCount int) ([]*Subproblem, error)
	// MaxBatch is the largest batch one Split call can return — the
	// fan-out a scheduler should reserve recipients for.
	MaxBatch() int
}

// dilemmaK is the number of jointly forked variables of the dilemma
// strategies: 2^2 cofactors per split, donor keeps one and ships three.
const dilemmaK = 2

// StrategyNames lists the -split-strategy flag vocabulary.
const StrategyNames = "first-decision | dilemma | dilemma-veto"

// ParseStrategy maps a -split-strategy flag value to a strategy; "" means
// the paper's first-decision transform.
func ParseStrategy(name string) (SplitStrategy, error) {
	switch name {
	case "", "first-decision":
		return FirstDecision{}, nil
	case "dilemma":
		return Dilemma{}, nil
	case "dilemma-veto":
		return Dilemma{veto: true}, nil
	}
	return nil, fmt.Errorf("solver: unknown split strategy %q (want %s)", name, StrategyNames)
}

// FirstDecision is the paper's Figure-2 strategy: fork one binary
// subproblem on the donor's first decision. It delegates to Solver.Split,
// which extends the guiding path by one literal — the binary special case
// of the strategy's path contract.
type FirstDecision struct{}

// MaxBatch implements SplitStrategy.
func (FirstDecision) MaxBatch() int { return 1 }

// Split implements SplitStrategy.
func (FirstDecision) Split(s *Solver, learntMaxLen, learntMaxCount int) ([]*Subproblem, error) {
	sub, err := s.Split(learntMaxLen, learntMaxCount)
	if err != nil {
		return nil, err
	}
	return []*Subproblem{sub}, nil
}

// splitCandidate is a split-variable candidate with its selection signals.
type splitCandidate struct {
	v cnf.Var
	// votes is the number of recent learned clauses mentioning v — the
	// dilemma vote aggregation signal (a variable the search keeps
	// deriving facts about is a variable worth forking the space on).
	votes int
	// act is the VSIDS activity (max over both polarities), the tie-break
	// within a vote count.
	act float64
	// occ is v's occurrence count in the problem clauses, the veto
	// filter's structural signal.
	occ int
}

// Dilemma is the Dissolve-style multi-way strategy: pick dilemmaK
// variables by vote aggregation over the most recent learned clauses (VSIDS
// activity breaks ties), fan the search space out over all 2^k assignments
// of those variables in one shot, keep one cofactor on the donor and ship
// the other 2^k-1. Every cofactor — donor's included — extends the guiding
// path by its k literals.
type Dilemma struct {
	// veto applies the Kotthoff & Moore candidate filter before the pick
	// ("dilemma-veto"): bad split variables are reliably identifiable even
	// when good ones are not, so instead of trying to pick winners it
	// removes candidates whose structural profile marks them as losers —
	// variables occurring in fewer problem clauses than the candidate
	// median (forking on them barely constrains either cofactor) and
	// variables the search has never touched (zero VSIDS activity and zero
	// learnt votes). See vetoFilter.
	veto bool
}

// MaxBatch implements SplitStrategy.
func (Dilemma) MaxBatch() int { return 1<<dilemmaK - 1 }

// recentLearntWindow bounds the vote-aggregation scan to the newest
// learned clauses, where the search's current locality lives.
const recentLearntWindow = 256

// Split implements SplitStrategy.
func (d Dilemma) Split(s *Solver, learntMaxLen, learntMaxCount int) ([]*Subproblem, error) {
	if s.status != StatusUnknown {
		return nil, errors.New("solver: cannot split a decided problem")
	}
	// The dilemma transform works on the donor's permanent assignments
	// alone: settle at level 0 first. A conflict here refutes the donor's
	// whole subproblem — nothing left to split.
	s.backtrackTo(0)
	if confl := s.propagate(); confl != CRefUndef {
		s.status = StatusUNSAT
		return nil, errors.New("solver: subproblem refuted while preparing split")
	}

	cands := candidates(s)
	if d.veto {
		cands = vetoFilter(s, cands)
	}
	k := min(dilemmaK, len(cands))
	if k == 0 {
		return nil, ErrNothingToSplit
	}
	vars := make([]cnf.Var, k)
	for i := 0; i < k; i++ {
		vars[i] = cands[i].v
	}

	// Capture the subproblem ingredients before mutating the donor: the
	// shared level-0 prefix and the forwarded learnts are those of the
	// *pre-split* guiding path, valid for every cofactor.
	level0 := s.Level0Lits()
	learnts := s.ExportLearnts(learntMaxLen, learntMaxCount)

	// The donor keeps the cofactor matching its preferred polarities
	// (saved phase when available, Chaff's false-first default otherwise);
	// all other assignments of the k variables are shipped.
	donorCombo := 0
	for i, v := range vars {
		if s.savedPhase != nil && s.savedPhase[v] == cnf.True {
			donorCombo |= 1 << i
		}
	}
	var batch []*Subproblem
	for combo := 0; combo < 1<<k; combo++ {
		if combo == donorCombo {
			continue
		}
		lits := comboLits(vars, combo)
		batch = append(batch, &Subproblem{NumVars: s.nVars, Learnts: learnts,
			Assumptions: slices.Concat(level0, lits), Cube: slices.Concat(s.path, lits)})
	}

	// Commit the donor to its own cofactor. Assume taints the new facts,
	// so clauses that later depend on them stay local, exactly as with
	// promoted first decisions. A contradiction with existing level-0
	// facts legitimately refutes the donor's cofactor (status UNSAT); the
	// shipped cofactors are unaffected.
	own := comboLits(vars, donorCombo)
	if err := s.Assume(own...); err != nil {
		// Unreachable: vars are in range and unassigned.
		return nil, err
	}
	s.path = slices.Concat(s.path, own)
	s.lastSimplifyTrail = -1 // level 0 grew: force the next simplify pass
	s.stats.Splits++
	return batch, nil
}

// comboLits maps a bitmask over vars to assumption literals: bit i set
// means vars[i] is true in this cofactor.
func comboLits(vars []cnf.Var, combo int) []cnf.Lit {
	out := make([]cnf.Lit, len(vars))
	for i, v := range vars {
		if combo&(1<<i) != 0 {
			out[i] = cnf.PosLit(v)
		} else {
			out[i] = cnf.NegLit(v)
		}
	}
	return out
}

// candidates scores every unassigned variable by learnt-clause votes with
// VSIDS-activity tie-breaks and returns them best-first. Deterministic:
// equal (votes, activity) falls back to variable order.
func candidates(s *Solver) []splitCandidate {
	votes := make(map[cnf.Var]int)
	start := len(s.learnts) - recentLearntWindow
	if start < 0 {
		start = 0
	}
	for _, r := range s.learnts[start:] {
		if s.ca.Deleted(r) {
			continue
		}
		for i, n := 0, s.ca.Size(r); i < n; i++ {
			votes[s.ca.Lit(r, i).Var()]++
		}
	}
	var cands []splitCandidate
	for v := cnf.Var(0); int(v) < s.nVars; v++ {
		if s.vals[cnf.PosLit(v)] != cnf.Undef {
			continue
		}
		act := s.activity[cnf.PosLit(v)]
		if neg := s.activity[cnf.NegLit(v)]; neg > act {
			act = neg
		}
		cands = append(cands, splitCandidate{v: v, votes: votes[v], act: act})
	}
	sortCandidates(cands)
	return cands
}

// sortCandidates orders best-first: votes desc, activity desc, var asc.
// Variables are distinct, so the order is total.
func sortCandidates(cands []splitCandidate) {
	slices.SortFunc(cands, func(a, b splitCandidate) int {
		return cmp.Or(cmp.Compare(b.votes, a.votes), cmp.Compare(b.act, a.act), cmp.Compare(a.v, b.v))
	})
}

// vetoFilter applies the occurrence/activity veto, preserving the pool's
// best-first order. It never empties the pool: when every candidate would be vetoed, the unfiltered pool stands
// (a bad split still beats no split when a client must shed memory).
func vetoFilter(s *Solver, cands []splitCandidate) []splitCandidate {
	if len(cands) == 0 {
		return cands
	}
	occ := make([]int, s.nVars)
	for _, r := range s.clauses {
		if s.ca.Deleted(r) {
			continue
		}
		for i, n := 0, s.ca.Size(r); i < n; i++ {
			occ[s.ca.Lit(r, i).Var()]++
		}
	}
	for i := range cands {
		cands[i].occ = occ[cands[i].v]
	}
	med := medianOcc(cands)
	kept := make([]splitCandidate, 0, len(cands))
	for _, c := range cands {
		if c.occ < med {
			continue // vetoed: structurally underconnected
		}
		if c.votes == 0 && c.act == 0 {
			continue // vetoed: the search has never touched it
		}
		kept = append(kept, c)
	}
	if len(kept) == 0 {
		return cands
	}
	return kept
}

// medianOcc returns the median occurrence count of the candidate pool.
func medianOcc(cands []splitCandidate) int {
	occs := make([]int, len(cands))
	for i, c := range cands {
		occs[i] = c.occ
	}
	slices.Sort(occs)
	return occs[len(occs)/2]
}
