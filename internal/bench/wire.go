package bench

import (
	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/solver"
)

// CaptureShareTraffic runs the sequential engine over f with clause export
// enabled and packs the OnLearn stream into ShareClauses batches of
// batchSize — the same unit the client-side aggregator flushes to the
// master — capped at maxConflicts so captures stay fast.
func CaptureShareTraffic(f *cnf.Formula, shareMaxLen, batchSize int, maxConflicts int64) []comm.ShareClauses {
	if batchSize <= 0 {
		batchSize = 16
	}
	opts := solver.Fidelity2003()
	opts.ShareMaxLen = shareMaxLen
	var batches []comm.ShareClauses
	var cur []cnf.Clause
	opts.OnLearn = func(c cnf.Clause, _ int) {
		// Mirror the client-side aggregator: clauses are normalized at
		// learn time, so captured batches have the canonical shape the
		// codec sees in production.
		c, taut := c.Normalize()
		if taut {
			return
		}
		cur = append(cur, c)
		if len(cur) >= batchSize {
			batches = append(batches, comm.ShareClauses{From: 1, Clauses: cur})
			cur = nil
		}
	}
	s := solver.New(f, opts)
	s.Solve(solver.Limits{MaxConflicts: maxConflicts})
	if len(cur) > 0 {
		batches = append(batches, comm.ShareClauses{From: 1, Clauses: cur})
	}
	return batches
}
