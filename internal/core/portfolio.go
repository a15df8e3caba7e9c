package core

import (
	"sync"
	"sync/atomic"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/solver"
)

// portfolio is the in-host half of the two-level hybrid (ROADMAP item 3):
// K diversified CDCL workers race on ONE subproblem, exchanging learnt
// clauses through the lock-free hostPool, first finisher wins. To the
// rest of the cluster the whole portfolio is a single client: worker 0 —
// the pathfinder — runs the unmodified base configuration and is the only
// worker splits ever touch, so guiding-path semantics
// (taint/deps soundness, coverage algebra) are unchanged.
//
// Soundness of the race: every worker solves base ∧ (guiding-path
// assumptions at portfolio construction). A SAT model from any worker
// satisfies the base formula (the master re-verifies it anyway). After
// the pathfinder donates cofactors in a split, the extras keep solving
// the pre-split superset space; their UNSAT still implies the
// pathfinder's narrower current subspace is UNSAT, so reporting UNSAT at
// the pathfinder's depth keeps the coverage fixed-point exact (it closes
// a region that is genuinely refuted, never more than 2^-depth).
//
// Concurrency contract: Solve runs the K workers in parallel and blocks
// until the slice ends. Everything else — Stats, WorkerReports, splits on
// the pathfinder, DrainClusterShares — must be called between slices,
// when the workers are quiescent (the live client's control loop already
// has exactly that shape). ImportClauses and MemoryBytes are safe at any
// time (the solver's import buffer and arena counter are atomic).
//
// Every client solves through one, also at K = 1, where it is the one
// solver and nothing else: no pool, no diversification, no goroutine — the
// single-solver client of the paper, step for step.
type portfolio struct {
	workers []*portWorker
	// pool is the in-host exchange, nil when there is one worker.
	pool       *hostPool
	clusterCur *poolCursor
	clusterLen int
	// winner is the worker index that produced the last verdict (-1 while
	// undecided) — the flight log's worker attribution.
	winner int
	// sequential makes Solve step the workers one after another in index
	// order on the calling goroutine, each for its full quantum — the
	// deterministic schedule the DES needs (pool publish/drain order
	// becomes a total order). Chosen by the owning client's shell.
	sequential bool
}

// portWorker is one diversified solver plus its pool read position.
type portWorker struct {
	idx  int
	prof solver.Profile
	slv  *solver.Solver
	cur  *poolCursor
}

// poolRingCapacity is the per-worker exchange window. A worker falling
// more than this many clauses behind a sibling loses the overflow (the
// pool counts it); 1024 spans several slices at typical learn rates.
const poolRingCapacity = 1024

// newPortfolio builds K workers over the same subproblem. Worker i runs
// ProfileFor(i, baseOpts.Seed) applied to baseOpts; worker 0 is baseOpts
// unchanged. clusterLen is the cluster share bound: pool clauses at most
// that long are forwarded to the master-mediated share path by
// DrainClusterShares (non-positive disables cluster forwarding). A lone
// worker has no pool to publish to: it runs baseOpts as they are, OnLearn
// and export bound included, so its learnt clauses go where the caller
// pointed them.
func newPortfolio(base *cnf.Formula, sub *solver.Subproblem, baseOpts solver.Options, threads, clusterLen int) (*portfolio, error) {
	p := &portfolio{clusterLen: clusterLen, winner: -1}
	if threads == 1 {
		slv, err := solver.NewFromSubproblem(base, sub, baseOpts)
		if err != nil {
			return nil, err
		}
		p.workers = []*portWorker{{slv: slv}}
		return p, nil
	}
	p.pool = newHostPool(threads, poolRingCapacity)
	p.clusterCur = p.pool.NewCursor()
	for i := 0; i < threads; i++ {
		prof := solver.ProfileFor(i, baseOpts.Seed)
		opts := prof.Apply(baseOpts)
		// Export bound: intra-host exchange accepts bulkier clauses than
		// the cluster path; OnLearn gating is export-only, so widening the
		// pathfinder's bound does not perturb its search.
		opts.ShareMaxLen = prof.ExportMaxLen
		if clusterLen > opts.ShareMaxLen {
			opts.ShareMaxLen = clusterLen
		}
		w := i
		opts.OnLearn = func(c cnf.Clause, lbd int) { p.pool.Publish(w, c, lbd) }
		slv, err := solver.NewFromSubproblem(base, sub, opts)
		if err != nil {
			return nil, err
		}
		p.workers = append(p.workers, &portWorker{idx: i, prof: prof, slv: slv, cur: p.pool.NewCursor()})
	}
	return p, nil
}

// Pathfinder returns worker 0's solver — the one splits operate on.
func (p *portfolio) Pathfinder() *solver.Solver { return p.workers[0].slv }

// Winner returns the index of the worker that produced the last verdict
// (-1 while undecided).
func (p *portfolio) Winner() int { return p.winner }

// Threads returns the worker count.
func (p *portfolio) Threads() int { return len(p.workers) }

// Solve runs one slice on every worker: each drains its pool imports, then
// searches under the per-worker limits (the memory budget is divided
// evenly). Raced on goroutines, the first worker to reach a verdict
// cancels the rest; stepped sequentially, every worker runs its quantum.
// Either way SAT wins over UNSAT and lower index breaks ties, so the
// merged result is deterministic for a deterministic set of verdicts.
func (p *portfolio) Solve(lim solver.Limits) solver.Result {
	if len(p.workers) == 1 {
		res := p.workers[0].slv.Solve(lim)
		if res.Status != solver.StatusUnknown {
			p.winner = 0
		}
		return res
	}
	per := lim
	if lim.MaxMemoryBytes > 0 {
		per.MaxMemoryBytes = lim.MaxMemoryBytes / int64(len(p.workers))
	}
	results := make([]solver.Result, len(p.workers))
	step := func(w *portWorker) {
		if entries := p.pool.Drain(w.cur, w.idx, w.prof.ImportBudget); len(entries) != 0 {
			batch := make([]cnf.Clause, len(entries))
			for i, e := range entries {
				batch[i] = e.lits
			}
			_ = w.slv.ImportClauses(batch)
		}
		results[w.idx] = w.slv.Solve(per)
	}
	if p.sequential {
		for _, w := range p.workers {
			step(w)
		}
	} else {
		var first atomic.Int32
		first.Store(-1)
		var wg sync.WaitGroup
		for _, w := range p.workers {
			wg.Add(1)
			go func(w *portWorker) {
				defer wg.Done()
				step(w)
				if results[w.idx].Status != solver.StatusUnknown && first.CompareAndSwap(-1, int32(w.idx)) {
					for _, o := range p.workers {
						if o != w {
							o.slv.Stop()
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
	for i, r := range results {
		if r.Status == solver.StatusSAT {
			p.winner = i
			return r
		}
	}
	for i, r := range results {
		if r.Status == solver.StatusUNSAT {
			p.winner = i
			return r
		}
	}
	// No verdict: memory pressure anywhere surfaces as the slice reason
	// (the client's split/shed trigger); otherwise report the
	// pathfinder's reason (normally the conflict-limit quantum).
	for _, r := range results {
		if r.Reason == solver.ReasonMemLimit {
			return r
		}
	}
	return results[0]
}

// StopAll requests cancellation on every worker (a cut slice or a stop).
func (p *portfolio) StopAll() {
	for _, w := range p.workers {
		w.slv.Stop()
	}
}

// ImportClauses fans a cluster share batch out to every worker (each
// clones on receipt). Safe to call at any time.
func (p *portfolio) ImportClauses(cs []cnf.Clause) error {
	var err error
	for _, w := range p.workers {
		if e := w.slv.ImportClauses(cs); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// DrainClusterShares forwards pool clauses within the cluster share bound
// to fn (the client's share aggregator), cloning each: the aggregator
// normalizes in place and pool entries are shared with the workers.
// Between slices only.
func (p *portfolio) DrainClusterShares(fn func(c cnf.Clause, lbd int)) {
	if p.pool == nil {
		return
	}
	entries := p.pool.Drain(p.clusterCur, -1, 0)
	if p.clusterLen <= 0 {
		return
	}
	for _, e := range entries {
		if len(e.lits) <= p.clusterLen {
			fn(e.lits.Clone(), e.lbd)
		}
	}
}

// Stats sums the workers' counters — the single-client view the master
// aggregates. Between slices only.
func (p *portfolio) Stats() solver.Stats {
	var out solver.Stats
	for _, w := range p.workers {
		out = addStats(out, w.slv.Stats())
	}
	return out
}

// MemoryBytes sums the workers' clause-database sizes (atomic; any time).
func (p *portfolio) MemoryBytes() int64 {
	var n int64
	for _, w := range p.workers {
		n += w.slv.MemoryBytes()
	}
	return n
}

// NumLearnts sums the workers' learnt databases. Between slices only.
func (p *portfolio) NumLearnts() int {
	n := 0
	for _, w := range p.workers {
		n += w.slv.NumLearnts()
	}
	return n
}

// ShedMemory garbage-collects every worker's arena. Between slices only.
func (p *portfolio) ShedMemory() int64 {
	var freed int64
	for _, w := range p.workers {
		freed += w.slv.ShedMemory()
	}
	return freed
}

// PoolStats returns the exchange telemetry snapshot (zero without a pool).
func (p *portfolio) PoolStats() PoolStats {
	if p.pool == nil {
		return PoolStats{}
	}
	return p.pool.Stats()
}

// WorkerReports builds the per-worker heartbeat rows, nil for a lone
// worker: the report's own totals are that worker's. Between slices only.
func (p *portfolio) WorkerReports() []comm.WorkerReport {
	if len(p.workers) == 1 {
		return nil
	}
	out := make([]comm.WorkerReport, len(p.workers))
	for i, w := range p.workers {
		st := w.slv.Stats()
		out[i] = comm.WorkerReport{
			Worker:       w.idx,
			Profile:      w.prof.String(),
			Conflicts:    st.Conflicts,
			Propagations: st.Propagations,
			Restarts:     st.Restarts,
			Learnts:      w.slv.NumLearnts(),
			MemBytes:     w.slv.MemoryBytes(),
		}
	}
	return out
}

// addStats sums two counter snapshots field by field.
func addStats(a, b solver.Stats) solver.Stats {
	a.Decisions += b.Decisions
	a.Conflicts += b.Conflicts
	a.Propagations += b.Propagations
	a.Implications += b.Implications
	a.Learned += b.Learned
	a.Deleted += b.Deleted
	a.Restarts += b.Restarts
	a.Imported += b.Imported
	a.Exported += b.Exported
	a.Simplified += b.Simplified
	a.Splits += b.Splits
	a.ReclaimedBytes += b.ReclaimedBytes
	a.ImportedImplications += b.ImportedImplications
	a.ImportedResolutions += b.ImportedResolutions
	a.ImportedUseful += b.ImportedUseful
	return a
}
