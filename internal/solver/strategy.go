package solver

import (
	"errors"
	"fmt"

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
// Depth bookkeeping is owned by the strategy: a strategy that forks the
// space over k variables (2^k cofactors, donor keeps one) must advance the
// donor's pathDepth by k and stamp every shipped Subproblem with the same
// new depth, so that closing all 2^k cofactors at depth d+k accounts for
// exactly 2^-d of the root search space.
type SplitStrategy interface {
	// Name is the strategy's flag value (e.g. "first-decision").
	Name() string
	// Split carves a batch of subproblems off the donor s, mutating s to
	// own only its remaining cofactor. learntMaxLen/learntMaxCount bound
	// the learned clauses forwarded with each subproblem, as in
	// Solver.Split. Returns ErrNothingToSplit when s has nothing to shed.
	Split(s *Solver, learntMaxLen, learntMaxCount int) ([]*Subproblem, error)
	// MaxBatch is the largest batch one Split call can return — the
	// fan-out a scheduler should reserve recipients for.
	MaxBatch() int
}

// DefaultDilemmaK is the number of jointly forked variables of the dilemma
// strategies: 2^2 cofactors per split, donor keeps one and ships three.
const DefaultDilemmaK = 2

// StrategyNames lists the -split-strategy flag vocabulary.
const StrategyNames = "first-decision | dilemma | dilemma-veto"

// ParseStrategy maps a -split-strategy flag value to a strategy; "" means
// the paper's first-decision transform.
func ParseStrategy(name string) (SplitStrategy, error) {
	switch name {
	case "", "first-decision":
		return FirstDecision{}, nil
	case "dilemma":
		return &Dilemma{K: DefaultDilemmaK}, nil
	case "dilemma-veto":
		return Veto{Inner: &Dilemma{K: DefaultDilemmaK}}, nil
	}
	return nil, fmt.Errorf("solver: unknown split strategy %q (want %s)", name, StrategyNames)
}

// FirstDecision is the paper's Figure-2 strategy: fork one binary
// subproblem on the donor's first decision. It delegates to Solver.Split,
// which advances the guiding-path depth by 1 — the binary special case of
// the strategy depth contract.
type FirstDecision struct{}

// Name implements SplitStrategy.
func (FirstDecision) Name() string { return "first-decision" }

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

// candidateFilter narrows a candidate pool before the top-k pick; the
// slice is ordered best-first and the filter must preserve that order.
type candidateFilter func(s *Solver, cands []splitCandidate) []splitCandidate

// Dilemma is the Dissolve-style multi-way strategy: pick K variables by
// vote aggregation over the most recent learned clauses (VSIDS activity
// breaks ties), fan the search space out over all 2^K assignments of those
// variables in one shot, keep one cofactor on the donor and ship the other
// 2^K-1. Every cofactor — donor's included — descends K guiding-path
// levels.
type Dilemma struct {
	// K is the number of jointly forked variables; values below 1 mean
	// DefaultDilemmaK. The batch size is 2^K-1.
	K int
}

// Name implements SplitStrategy.
func (d *Dilemma) Name() string { return "dilemma" }

// MaxBatch implements SplitStrategy.
func (d *Dilemma) MaxBatch() int { return 1<<d.k() - 1 }

func (d *Dilemma) k() int {
	if d.K < 1 {
		return DefaultDilemmaK
	}
	return d.K
}

// recentLearntWindow bounds the vote-aggregation scan to the newest
// learned clauses, where the search's current locality lives.
const recentLearntWindow = 256

// Split implements SplitStrategy.
func (d *Dilemma) Split(s *Solver, learntMaxLen, learntMaxCount int) ([]*Subproblem, error) {
	return d.splitWithFilter(s, learntMaxLen, learntMaxCount, nil)
}

func (d *Dilemma) splitWithFilter(s *Solver, learntMaxLen, learntMaxCount int, filter candidateFilter) ([]*Subproblem, error) {
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

	cands := d.candidates(s)
	if filter != nil {
		cands = filter(s, cands)
	}
	k := d.k()
	if len(cands) < k {
		k = len(cands)
	}
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
	depthBefore := s.pathDepth
	newDepth := depthBefore + k

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
		sub := &Subproblem{NumVars: s.nVars, Depth: newDepth, Learnts: learnts}
		sub.Assumptions = make([]cnf.Lit, 0, len(level0)+k)
		sub.Assumptions = append(sub.Assumptions, level0...)
		sub.Assumptions = append(sub.Assumptions, comboLits(vars, combo)...)
		batch = append(batch, sub)
	}

	// Commit the donor to its own cofactor. Assume taints the new facts,
	// so clauses that later depend on them stay local, exactly as with
	// promoted first decisions. A contradiction with existing level-0
	// facts legitimately refutes the donor's cofactor (status UNSAT); the
	// shipped cofactors are unaffected.
	if err := s.Assume(comboLits(vars, donorCombo)...); err != nil {
		// Unreachable: vars are in range and unassigned.
		return nil, err
	}
	s.pathDepth = newDepth
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
func (d *Dilemma) candidates(s *Solver) []splitCandidate {
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
// Insertion sort keeps it allocation-free; the pool is per-split only.
func sortCandidates(cands []splitCandidate) {
	better := func(a, b splitCandidate) bool {
		if a.votes != b.votes {
			return a.votes > b.votes
		}
		if a.act != b.act {
			return a.act > b.act
		}
		return a.v < b.v
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && better(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// Veto decorates a Dilemma with the Kotthoff & Moore candidate filter:
// bad split variables are reliably identifiable even when good ones are
// not, so instead of trying to pick winners it removes candidates whose
// structural profile marks them as losers — variables occurring in fewer
// problem clauses than the candidate median (forking on them barely
// constrains either cofactor) and variables the search has never touched
// (zero VSIDS activity and zero learnt votes).
type Veto struct {
	Inner *Dilemma
}

// Name implements SplitStrategy.
func (v Veto) Name() string { return v.Inner.Name() + "-veto" }

// MaxBatch implements SplitStrategy.
func (v Veto) MaxBatch() int { return v.Inner.MaxBatch() }

// Split implements SplitStrategy.
func (v Veto) Split(s *Solver, learntMaxLen, learntMaxCount int) ([]*Subproblem, error) {
	return v.Inner.splitWithFilter(s, learntMaxLen, learntMaxCount, vetoFilter)
}

// vetoFilter applies the occurrence/activity veto. It never empties the
// pool: when every candidate would be vetoed, the unfiltered pool stands
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
	// Insertion sort; candidate pools are one-per-split.
	for i := 1; i < len(occs); i++ {
		for j := i; j > 0 && occs[j] < occs[j-1]; j-- {
			occs[j], occs[j-1] = occs[j-1], occs[j]
		}
	}
	return occs[len(occs)/2]
}
