package solver

import (
	"sort"

	"gridsat/internal/cnf"
)

// simplify removes clauses satisfied by level-0 assignments and strips
// level-0-false literals from the rest — the paper's §3.1 pruning of
// "inconsequential" clauses, which it also backports to the sequential
// baseline. Must be called at decision level 0 with propagation complete.
// Freed clause space is compacted by the arena GC once enough accumulates.
func (s *Solver) simplify() {
	if s.DecisionLevel() != 0 || s.qhead != len(s.trail) {
		return
	}
	if len(s.trail) == s.lastSimplifyTrail {
		return // nothing new at level 0 since the last pass
	}
	s.lastSimplifyTrail = len(s.trail)
	s.clauses = s.simplifyList(s.clauses)
	s.learnts = s.simplifyList(s.learnts)
	s.maybeGC()
}

func (s *Solver) simplifyList(list []ClauseRef) []ClauseRef {
	ca := s.ca
	kept := list[:0]
	for _, r := range list {
		if ca.Deleted(r) {
			continue
		}
		if s.satisfiedAtLevel0(r) {
			s.detach(r)
			s.stats.Simplified++
			continue
		}
		// Strip false literals from non-watched positions. After full
		// level-0 propagation the two watched literals of an unsatisfied
		// clause are never false, so watches stay valid.
		n := ca.Size(r)
		w := 2
		for k := 2; k < n; k++ {
			l := ca.Lit(r, k)
			if s.vals[l] == cnf.False {
				if s.tainted[l.Var()] {
					// Strengthening by an assumption-dependent assignment
					// restricts the clause to this guiding path.
					ca.SetLocal(r)
				}
				continue
			}
			ca.SetLit(r, w, l)
			w++
		}
		ca.shrinkTo(r, w)
		kept = append(kept, r)
	}
	return kept
}

// satisfiedAtLevel0 reports whether some literal of r is true at level 0.
func (s *Solver) satisfiedAtLevel0(r ClauseRef) bool {
	for i, n := 0, s.ca.Size(r); i < n; i++ {
		l := s.ca.Lit(r, i)
		if s.vals[l] == cnf.True && s.level[l.Var()] == 0 {
			return true
		}
	}
	return false
}

// reduceDB halves the learned-clause database in Options.Reduce's order,
// keeping binary clauses and any clause that is currently a reason
// ("locked"). Mirrors the paper's observation (§4.2) that antecedent
// clauses must be retained while inactive learned clauses can be discarded
// under memory pressure. The arena compacts once a fifth of the slab is
// reclaimable.
func (s *Solver) reduceDB() {
	ca := s.ca
	live := s.learnts[:0]
	for _, r := range s.learnts {
		if !ca.Deleted(r) {
			live = append(live, r)
		}
	}
	s.learnts = live
	byLBD := s.opts.Reduce == ReduceByLBD
	if byLBD {
		// Stable, so within one LBD the list order — oldest first — decides.
		sort.SliceStable(s.learnts, func(i, j int) bool {
			return ca.LBD(s.learnts[i]) > ca.LBD(s.learnts[j])
		})
	} else {
		sort.Slice(s.learnts, func(i, j int) bool {
			return ca.Act(s.learnts[i]) < ca.Act(s.learnts[j])
		})
	}
	target := len(s.learnts) / 2
	removed := 0
	kept := s.learnts[:0]
	for _, r := range s.learnts {
		glue := byLBD && ca.LBD(r) <= 2
		if removed < target && ca.Size(r) > 2 && !glue && !s.locked(r) {
			s.detach(r)
			s.stats.Deleted++
			removed++
			continue
		}
		kept = append(kept, r)
	}
	s.learnts = kept
	s.maxLearnts = s.maxLearnts + s.maxLearnts/5
	s.maybeGC()
}

// ShedMemory aggressively halves the learned-clause database and compacts
// the arena, returning the exact number of bytes freed (dropped clauses
// plus reclaimed fragmentation). GridSAT clients call it when the memory
// budget is hit while waiting for a split, mirroring the paper's §4.2
// observation that a memory-starved solver must discard inactive learned
// clauses to keep making (degraded) progress; the return value feeds the
// client heartbeat so the master's /status shows per-client reclamation.
func (s *Solver) ShedMemory() int64 {
	before := s.ca.LiveBytes() + s.ca.WastedBytes()
	s.reduceDB()
	s.garbageCollect()
	return before - s.ca.LiveBytes()
}

// locked reports whether r is the antecedent of a current assignment.
func (s *Solver) locked(r ClauseRef) bool {
	l0 := s.ca.Lit(r, 0)
	return s.reason[l0.Var()] == r && s.vals[l0] == cnf.True
}
