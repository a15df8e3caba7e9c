package core

import (
	"sort"

	"gridsat/internal/comm"
)

// This file is the cluster progress estimator. GridSAT's guiding-path
// splits cut the search space in half at every fork (paper Figure 2), so
// the tree of subproblems carries an exact accounting: a subproblem whose
// guiding path has depth d covers 2^-d of the root search space, and a
// refuted (UNSAT) subproblem retires exactly that fraction forever. Summing
// the retired fractions yields a monotone, never-overshooting progress
// estimate that reaches exactly 1 when the whole space is refuted — the
// paper only reports end-to-end wall time; this makes the interior of a
// multi-day run observable.
//
// The sum is computed in fixed point, not floating point: contributions are
// integer multiples of 2^-coverageBits, so adding the two depth-(d+1)
// halves of a depth-d subproblem reproduces the parent's weight bit for
// bit, with no rounding drift on deep, unbalanced split trees.

const (
	// coverageBits fixes the denominator of the fixed-point coverage sum:
	// one unit is 2^-62 of the search space, and coverageFull (2^62) fits
	// comfortably in int64 for flight-recorder payloads.
	coverageBits = 62
	coverageFull = uint64(1) << coverageBits
)

// coverageUnits converts a guiding-path depth into fixed-point coverage
// units (2^(62-d)). Depths beyond 62 — a split tree deeper than 2^62
// subproblems, unreachable in practice — saturate to one unit so progress
// still advances; the tracker's capped addition keeps the total ≤ 1.
func coverageUnits(depth int) uint64 {
	if depth < 0 {
		depth = 0
	}
	if depth >= coverageBits {
		return 1
	}
	return coverageFull >> uint(depth)
}

// ProgressTracker accumulates refuted guiding-path prefixes into the
// cluster coverage estimate and maintains an EWMA of the coverage rate,
// from which Master.state projects the ETA. It is deterministic: identical
// (depth, atSec) sequences produce identical state, so the DES runner's
// progress curves reproduce exactly. Not safe for concurrent use; the master touches it only from
// its event loop.
type ProgressTracker struct {
	units    uint64
	closed   int64
	maxDepth int
	// cov is the EWMA of coverage fraction per second, updated at each
	// closure from the fraction gained since the previous one — or, for
	// the first, since cov.at was set when the job started.
	cov ewma
}

// progressEWMAAlpha weights the newest rate sample; 0.25 smooths over
// roughly the last four.
const progressEWMAAlpha = 0.25

// ewma is a rate smoothed over its updates: the master's per-client
// conflict rate and a job's coverage rate.
type ewma struct {
	rate float64 // 0 until the first update counts
	have bool
	at   float64 // when the last counted update came; the next interval's start
}

// update folds amount gained by now into the rate, as amount/(now-at). An
// update at or before at counts nothing and leaves at where it is.
func (e *ewma) update(amount, now float64) {
	dt := now - e.at
	if dt <= 0 {
		return
	}
	inst := amount / dt
	if e.have {
		e.rate = progressEWMAAlpha*inst + (1-progressEWMAAlpha)*e.rate
	} else {
		e.rate, e.have = inst, true
	}
	e.at = now
}

// CloseSubproblem records the refutation of a subproblem at the given
// guiding-path depth and timestamp (seconds; virtual or wall — the caller
// picks one clock and sticks to it). Returns the new coverage total in
// fixed-point units. The addition is capped at coverageFull, so the
// estimate can never overshoot 1 even with saturated deep contributions.
func (p *ProgressTracker) CloseSubproblem(depth int, atSec float64) uint64 {
	add := coverageUnits(depth)
	if add > coverageFull-p.units {
		p.units = coverageFull
	} else {
		p.units += add
	}
	p.closed++
	if depth > p.maxDepth {
		p.maxDepth = depth
	}
	p.cov.update(float64(add)/float64(coverageFull), atSec)
	return p.units
}

// Units returns the coverage total in fixed-point units (2^-62 each).
func (p *ProgressTracker) Units() uint64 { return p.units }

// Fraction returns the refuted fraction of the root search space in [0, 1].
func (p *ProgressTracker) Fraction() float64 {
	return float64(p.units) / float64(coverageFull)
}

// Closed returns the number of refuted subproblems folded in so far.
func (p *ProgressTracker) Closed() int64 { return p.closed }

// MaxDepth returns the deepest refuted guiding path seen.
func (p *ProgressTracker) MaxDepth() int { return p.maxDepth }

// Rate returns the EWMA coverage rate in fraction per second (0 until a
// closure ends the first interval).
func (p *ProgressTracker) Rate() float64 { return p.cov.rate }

// ShareEfficacy summarizes whether clause sharing is paying for itself:
// how many imported clauses the cluster merged, and how much BCP and
// conflict-analysis work they actually did (HordeSat/Mallob's lesson that
// share volume alone is a misleading signal).
type ShareEfficacy struct {
	// Imported counts peer clauses merged into client databases.
	Imported int64 `json:"imported"`
	// ImportedUseful counts distinct imported clauses that participated in
	// at least one implication or conflict resolution.
	ImportedUseful int64 `json:"imported_useful"`
	// ImportedImplications / ImportedResolutions count the BCP implications
	// and conflict-analysis resolutions produced by imported clauses.
	ImportedImplications int64 `json:"imported_implications"`
	ImportedResolutions  int64 `json:"imported_resolutions"`
	// UsefulRatio is ImportedUseful / Imported (0 when nothing imported).
	UsefulRatio float64 `json:"useful_ratio"`
	// ImplicationShare is the fraction of all BCP implications produced by
	// imported clauses.
	ImplicationShare float64 `json:"implication_share"`
}

// efficacyOf derives the ratio view from aggregated solver deltas.
func efficacyOf(d comm.SolverDeltas) ShareEfficacy {
	e := ShareEfficacy{
		Imported:             d.Imported,
		ImportedUseful:       d.ImportedUseful,
		ImportedImplications: d.ImportedImplications,
		ImportedResolutions:  d.ImportedResolutions,
	}
	if d.Imported > 0 {
		e.UsefulRatio = float64(d.ImportedUseful) / float64(d.Imported)
	}
	if d.Implications > 0 {
		e.ImplicationShare = float64(d.ImportedImplications) / float64(d.Implications)
	}
	return e
}

// stragglerFraction: a busy client below this fraction of the busy-pool
// median conflict rate is flagged (with at least three busy clients, so a
// two-client run never flags the slower half).
const stragglerFraction = 0.25

// markStragglers fills Utilization and Straggler across a state's client
// rows, in place. Pure and deterministic for testability.
func markStragglers(clients []ClientState) {
	var maxRate float64
	var busyRates []float64
	for _, c := range clients {
		if c.ConflictsPerSec > maxRate {
			maxRate = c.ConflictsPerSec
		}
		if c.Busy {
			busyRates = append(busyRates, c.ConflictsPerSec)
		}
	}
	for i := range clients {
		if maxRate > 0 {
			clients[i].Utilization = clients[i].ConflictsPerSec / maxRate
		}
	}
	if len(busyRates) < 3 {
		return
	}
	sort.Float64s(busyRates)
	median := busyRates[len(busyRates)/2]
	if median <= 0 {
		return
	}
	for i := range clients {
		if clients[i].Busy && clients[i].ConflictsPerSec < stragglerFraction*median {
			clients[i].Straggler = true
		}
	}
}
