package solver

import (
	"fmt"
	"sort"

	"gridsat/internal/cnf"
)

// ImportClauses queues clauses learned by other GridSAT clients (globally
// valid) for merge into this solver's database. Safe to call from any
// goroutine while Solve runs. Per the paper (§3.2), imported clauses are
// merged in batches only when the search is back at the first decision
// level.
func (s *Solver) ImportClauses(cs []cnf.Clause) error {
	for _, c := range cs {
		if err := s.importOne(c, false); err != nil {
			return err
		}
	}
	return nil
}

// ImportClausesLocal queues clauses that are valid only under this
// solver's guiding-path assumptions — the learned clauses forwarded inside
// a split payload or restored from a checkpoint. They are merged like
// shared clauses but marked local so they are never re-exported.
func (s *Solver) ImportClausesLocal(cs []cnf.Clause) error {
	for _, c := range cs {
		if err := s.importOne(c, true); err != nil {
			return err
		}
	}
	return nil
}

func (s *Solver) importOne(c cnf.Clause, local bool) error {
	for _, l := range c {
		if int(l.Var()) >= s.nVars {
			return fmt.Errorf("solver: imported literal %v out of range", l)
		}
	}
	s.importMu.Lock()
	s.importBuf = append(s.importBuf, pendingImport{clause: c.Clone(), local: local})
	s.importMu.Unlock()
	return nil
}

// PendingImports returns the number of clauses waiting to be merged.
func (s *Solver) PendingImports() int {
	s.importMu.Lock()
	defer s.importMu.Unlock()
	return len(s.importBuf)
}

func (s *Solver) hasImports() bool { return s.PendingImports() > 0 }

// importMergeConflicts is how many conflicts an import buffer may wait
// before the solver forces a restart to merge it; one value serves both
// presets and every portfolio profile.
const importMergeConflicts = 2048

// needMergeRestart reports whether the import buffer has waited long enough
// that the solver should force a restart to merge it. Without this, a
// client deep in its search would never benefit from clauses its peers
// share.
func (s *Solver) needMergeRestart() bool {
	return s.importWaitConflicts >= s.importMergeAfter && s.hasImports()
}

// mergeImports merges the queued clauses into the database. It implements
// the paper's four cases: a clause that is all-false yields a level-0
// conflict (subproblem UNSAT: returns false); one unknown literal yields an
// implication; two or more unknowns adds the clause; an already-satisfied
// clause is discarded. Must be called at decision level 0.
// pendingImport is one queued clause with its validity scope.
type pendingImport struct {
	clause cnf.Clause
	local  bool
}

func (s *Solver) mergeImports() bool {
	s.importMu.Lock()
	batch := s.importBuf
	s.importBuf = nil
	s.importMu.Unlock()
	if len(batch) == 0 {
		return true
	}
	s.importWaitConflicts = 0
	for _, raw := range batch {
		norm, taut := raw.clause.Normalize()
		if taut {
			continue
		}
		s.stats.Imported++
		if !s.mergeOne(norm, raw.local) {
			return false
		}
	}
	return true
}

// mergeOne merges a single normalized clause at level 0.
func (s *Solver) mergeOne(c cnf.Clause, local bool) bool {
	// Partition: true literals (satisfied => discard), unknown, false.
	nTrue, nUndef := 0, 0
	for _, l := range c {
		switch s.vals[l] {
		case cnf.True:
			nTrue++
		case cnf.Undef:
			nUndef++
		}
	}
	if nTrue > 0 {
		return true // case 4: satisfied at level 0, prunes nothing — discard
	}
	switch nUndef {
	case 0:
		return false // case 3: all false — the subproblem is unsatisfiable
	case 1:
		// Case 1: implication at level 0. The implied assignment depends
		// on the clause's validity and on the falsifying assignments, so
		// taint it when any of those are assumption-dependent.
		taint := local
		if !taint {
			for _, l := range c {
				if s.tainted[l.Var()] {
					taint = true
					break
				}
			}
		}
		for _, l := range c {
			if s.vals[l] == cnf.Undef {
				s.uncheckedEnqueue(l, CRefUndef)
				if taint {
					s.taint(l.Var())
				}
				break
			}
		}
		return true
	}
	// Case 2: add to the learned database. Order unknown literals first so
	// the watched positions are valid.
	sorted := c.Clone()
	sort.SliceStable(sorted, func(i, j int) bool {
		return s.vals[sorted[i]] == cnf.Undef && s.vals[sorted[j]] != cnf.Undef
	})
	r := s.ca.Alloc(sorted, true, local, clauseAct(s.actInc))
	// An import's true glue is unknown here (the exporter's levels are
	// meaningless locally); its length is the standard pessimistic proxy,
	// so imports rank behind same-length native learnts in export order.
	s.ca.SetLBD(r, len(sorted))
	// Tag the peer origin so BCP and conflict analysis can attribute work
	// to imported clauses (the import-usefulness telemetry). The bit lives
	// in the header, so it survives arena GC relocation.
	s.ca.SetImported(r)
	s.learnts = append(s.learnts, r)
	s.attach(r)
	for _, l := range sorted {
		s.bump(l)
	}
	return true
}
