package core

import (
	"sort"
	"sync"

	"gridsat/internal/cnf"
)

// clauseWindow is a bounded duplicate-suppression set over clause
// fingerprints. It keeps two epochs of at most cap entries each: inserts
// go to the current epoch, and when it fills, the previous epoch is
// dropped and the epochs rotate. Membership checks consult both, so a
// fingerprint is remembered for at least cap and at most 2*cap distinct
// inserts — bounded memory under arbitrarily long runs, unlike the
// unbounded seen-map it replaces. A forgotten fingerprint only costs one
// redundant best-effort share.
type clauseWindow struct {
	cap       int
	cur, prev map[uint64]struct{}
}

// shareWindowCap is the epoch size of every share window, the master's
// per-job one and each client's: 2^16 fingerprints, sized for long runs.
const shareWindowCap = 1 << 16

func newClauseWindow(capacity int) *clauseWindow {
	if capacity <= 0 {
		capacity = shareWindowCap
	}
	// The first epoch grows on demand: most windows (one per client, one
	// per job) never see anywhere near cap fingerprints.
	return &clauseWindow{cap: capacity, cur: map[uint64]struct{}{}}
}

// Contains reports whether fp is remembered.
func (w *clauseWindow) Contains(fp uint64) bool {
	if _, ok := w.cur[fp]; ok {
		return true
	}
	_, ok := w.prev[fp]
	return ok
}

// Add inserts fp and reports whether it was fresh (not remembered).
func (w *clauseWindow) Add(fp uint64) bool {
	if w.Contains(fp) {
		return false
	}
	if len(w.cur) >= w.cap {
		w.prev = w.cur
		w.cur = make(map[uint64]struct{}, w.cap)
	}
	w.cur[fp] = struct{}{}
	return true
}

// Len returns the number of remembered fingerprints (≤ 2*cap).
func (w *clauseWindow) Len() int { return len(w.cur) + len(w.prev) }

// pendingShare is one clause queued for sharing with its learn-time LBD
// (glue); the pending batch is ranked by (LBD, length) ascending so
// overflow drops the highest-glue — least valuable — clause first.
type pendingShare struct {
	c   cnf.Clause
	lbd int
}

// shareAggregator is a client's sender-side batching stage between the
// solver's OnLearn callback and the master connection. It coalesces
// learned clauses into batches flushed by count or by interval, filters
// clauses this client already saw arrive from peers (re-exporting an
// imported clause would echo it around the cluster), and keeps the
// pending batch sorted by (LBD, length) best-first so that when the batch
// overflows, the highest-glue longest — least valuable — clauses are the
// ones dropped.
//
// Learn is called from the solver goroutine mid-slice; NoteReceived and
// the flush methods run on the client's control loop. All state is
// guarded by one mutex; every operation is O(len) or better, so the
// solver never blocks long.
type shareAggregator struct {
	mu         sync.Mutex
	pending    []pendingShare // sorted by (LBD, length), best first
	pendingMax int
	flushCount int
	// flushEvery and lastFlush are seconds on the owning client's clock.
	flushEvery float64
	lastFlush  float64
	window     *clauseWindow

	dedupHits int64 // clauses suppressed as already seen
	overflow  int64 // clauses dropped from a full pending batch
}

// A client flushes its aggregator once shareFlushCount fresh clauses are
// pending, or shareFlushEvery seconds (on its clock) after the last flush if
// anything is.
const (
	shareFlushCount = 16
	shareFlushEvery = 0.1
)

// newShareAggregator builds an aggregator with the given flush policy; a
// pendingMax below flushCount means 64 batches' worth.
func newShareAggregator(flushCount int, flushEvery float64, windowCap, pendingMax int, now float64) *shareAggregator {
	if pendingMax < flushCount {
		pendingMax = 64 * flushCount
	}
	return &shareAggregator{
		pendingMax: pendingMax,
		flushCount: flushCount,
		flushEvery: flushEvery,
		lastFlush:  now,
		window:     newClauseWindow(windowCap),
	}
}

// shareKey ranks a pending clause for the batch order: LBD first (0 means
// "unknown", which ranks last), length within the same glue.
func shareKey(p pendingShare) uint64 {
	lbd := p.lbd
	if lbd <= 0 {
		lbd = 1 << 20
	}
	return uint64(lbd)<<32 | uint64(len(p.c))
}

// Learn offers a freshly learned clause for sharing, with the LBD (glue)
// the solver recorded at learn time. The clause must be safe to retain
// (OnLearn passes a fresh copy). Clauses already in the window — learned
// before, or received from a peer — are suppressed.
func (a *shareAggregator) Learn(c cnf.Clause, lbd int) {
	// Normalize up front: the wire codec's canonical-form fast path then
	// skips its clone-and-sort on encode, moving that cost here to the
	// producer side, off the flush/broadcast path. Tautologies are never
	// worth shipping.
	c, taut := c.Normalize()
	if taut {
		return
	}
	fp := c.Fingerprint()
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.window.Add(fp) {
		a.dedupHits++
		return
	}
	// Insert keeping the pending batch ranked best-first by (LBD, length).
	p := pendingShare{c: c, lbd: lbd}
	i := sort.Search(len(a.pending), func(i int) bool { return shareKey(a.pending[i]) > shareKey(p) })
	a.pending = append(a.pending, pendingShare{})
	copy(a.pending[i+1:], a.pending[i:])
	a.pending[i] = p
	if len(a.pending) > a.pendingMax {
		// Drop the worst-ranked pending clause — the tail of the batch.
		a.pending[len(a.pending)-1] = pendingShare{}
		a.pending = a.pending[:len(a.pending)-1]
		a.overflow++
	}
}

// NoteReceived records clauses that arrived from peers so this client
// never re-exports them, and prunes any that are still pending.
func (a *shareAggregator) NoteReceived(cs []cnf.Clause) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range cs {
		a.window.Add(c.Fingerprint())
	}
	if len(a.pending) == 0 {
		return
	}
	recv := make(map[uint64]struct{}, len(cs))
	for _, c := range cs {
		recv[c.Fingerprint()] = struct{}{}
	}
	kept := a.pending[:0]
	for _, p := range a.pending {
		if _, dup := recv[p.c.Fingerprint()]; dup {
			a.dedupHits++
			continue
		}
		kept = append(kept, p)
	}
	for i := len(kept); i < len(a.pending); i++ {
		a.pending[i] = pendingShare{}
	}
	a.pending = kept
}

// TakeBatch returns the pending batch (best-ranked clause first) if the
// flush policy says it is time: the batch reached flushCount, or
// flushEvery has elapsed since the last flush with anything pending.
// Otherwise it returns nil.
func (a *shareAggregator) TakeBatch(now float64) []cnf.Clause {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.pending) == 0 {
		return nil
	}
	if len(a.pending) < a.flushCount && now-a.lastFlush < a.flushEvery {
		return nil
	}
	return a.takeLocked(now)
}

// Drain returns whatever is pending regardless of policy — used when the
// client finishes a subproblem so nothing learned is lost.
func (a *shareAggregator) Drain(now float64) []cnf.Clause {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.pending) == 0 {
		return nil
	}
	return a.takeLocked(now)
}

func (a *shareAggregator) takeLocked(now float64) []cnf.Clause {
	out := make([]cnf.Clause, len(a.pending))
	for i, p := range a.pending {
		out[i] = p.c
	}
	a.pending = nil
	a.lastFlush = now
	return out
}

// DedupHits returns the number of clauses suppressed by the receive
// window (fed to gridsat_client_share_dedup_total).
func (a *shareAggregator) DedupHits() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dedupHits
}

// Overflow returns the number of clauses dropped from a full batch.
func (a *shareAggregator) Overflow() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.overflow
}
