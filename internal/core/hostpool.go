package core

import (
	"sort"
	"sync/atomic"

	"gridsat/internal/cnf"
)

// This file is the in-host clause pool: the lock-free exchange lane
// between a portfolio client's K solver workers. Cross-host sharing stays
// master-mediated and bounded by the paper's share length; within a host
// the exchange is nearly free, so the pool accepts longer clauses and
// imports are ranked LBD-then-length per consumer.
//
// Structure: one single-producer broadcast ring per worker. A producer
// publishes immutable entries tagged with their absolute publish index;
// consumers keep a cursor per ring and never mutate ring state, so any
// number of readers drain concurrently without coordination. When a slow
// reader is lapped, the overwritten entries are counted as lost for that
// reader — the documented window bound: for every reader,
//
//	delivered + lost == published (by others)
//
// holds exactly, and a reader that stays within `capacity` entries of
// every producer loses nothing and sees no duplicates.

// poolEntry is one published learnt clause. Immutable after Publish; the
// literal slice is shared by every consumer (solver imports clone on
// receipt, so retention is safe).
type poolEntry struct {
	pos  uint64 // absolute publish index within the producer's ring
	from int    // publishing worker
	lbd  int    // learn-time glue (quality rank)
	lits cnf.Clause
}

// poolRing is one worker's single-producer broadcast ring. The producer
// stores the entry pointer first and advances head second, so any index
// below head has a visible entry whose pos is >= that index (equal unless
// the slot has been lapped).
type poolRing struct {
	head  atomic.Uint64
	slots []atomic.Pointer[poolEntry]
}

func (r *poolRing) publish(e *poolEntry) {
	pos := r.head.Load() // single producer: plain read-modify-write
	e.pos = pos
	r.slots[pos%uint64(len(r.slots))].Store(e)
	r.head.Store(pos + 1)
}

// hostPool is the K-worker exchange: one ring per worker plus aggregate
// telemetry. Publish is called from solver goroutines (one per worker);
// Drain from any consumer with its own cursor.
type hostPool struct {
	rings []poolRing

	published atomic.Int64 // entries published across all rings
	delivered atomic.Int64 // entries handed to consumers
	lost      atomic.Int64 // entries skipped because a reader was lapped
	dropped   atomic.Int64 // entries ranked out by a Drain budget
}

// newHostPool builds a pool for `workers` producers with `capacity`
// entries of history per producer.
func newHostPool(workers, capacity int) *hostPool {
	if capacity <= 0 {
		capacity = 256
	}
	p := &hostPool{rings: make([]poolRing, workers)}
	for i := range p.rings {
		p.rings[i].slots = make([]atomic.Pointer[poolEntry], capacity)
	}
	return p
}

// Publish offers a learnt clause from worker w to every other worker. The
// clause must be safe to retain (the solver's OnLearn passes a fresh
// copy) and is never mutated by the pool or its consumers.
func (p *hostPool) Publish(w int, c cnf.Clause, lbd int) {
	p.rings[w].publish(&poolEntry{from: w, lbd: lbd, lits: c})
	p.published.Add(1)
}

// poolCursor is one consumer's read position in every ring, plus its
// private delivery accounting (the per-reader half of the window-bound
// invariant: delivered + lost == published by others).
type poolCursor struct {
	pos       []uint64
	delivered int64
	lost      int64
	dropped   int64
}

// NewCursor returns a cursor positioned at the start of every ring, so
// the consumer sees everything published since the pool was built
// (subject to the lapping window).
func (p *hostPool) NewCursor() *poolCursor {
	return &poolCursor{pos: make([]uint64, len(p.rings))}
}

// Drain collects entries published since cur on every ring except self
// (a worker never re-imports its own exports), advances the cursor, and
// returns them ranked LBD-then-length-then-origin (deterministic for a
// deterministic publish history). A positive budget keeps only the best
// `budget` entries; the remainder is counted as dropped.
func (p *hostPool) Drain(cur *poolCursor, self, budget int) []poolEntry {
	var out []poolEntry
	var lost int64
	for w := range p.rings {
		if w == self {
			continue
		}
		r := &p.rings[w]
		pos := cur.pos[w]
		head := r.head.Load()
		if pos >= head {
			continue
		}
		capacity := uint64(len(r.slots))
		if head-pos > capacity {
			// Lapped: everything older than one full ring is gone.
			lost += int64(head - capacity - pos)
			pos = head - capacity
		}
		for ; pos < head; pos++ {
			e := r.slots[pos%capacity].Load()
			if e == nil || e.pos != pos {
				// The producer overwrote this slot after our head read
				// (another lap); the entry for pos is unrecoverable.
				lost++
				continue
			}
			out = append(out, *e)
		}
		cur.pos[w] = head
	}
	if lost > 0 {
		p.lost.Add(lost)
		cur.lost += lost
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.lbd != b.lbd {
			return a.lbd < b.lbd
		}
		if len(a.lits) != len(b.lits) {
			return len(a.lits) < len(b.lits)
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.pos < b.pos
	})
	if budget > 0 && len(out) > budget {
		p.dropped.Add(int64(len(out) - budget))
		cur.dropped += int64(len(out) - budget)
		out = out[:budget]
	}
	p.delivered.Add(int64(len(out)))
	cur.delivered += int64(len(out))
	return out
}

// PoolStats is the pool's aggregate telemetry snapshot. Lost counts
// entries skipped under the pool's lapping window; Dropped counts
// import-budget rank-outs.
type PoolStats struct {
	Published int64 `json:"published"`
	Delivered int64 `json:"delivered"`
	Lost      int64 `json:"lost"`
	Dropped   int64 `json:"dropped"`
}

// add accumulates another snapshot into s.
func (s *PoolStats) add(o PoolStats) {
	s.Published += o.Published
	s.Delivered += o.Delivered
	s.Lost += o.Lost
	s.Dropped += o.Dropped
}

func (p *hostPool) Stats() PoolStats {
	return PoolStats{
		Published: p.published.Load(),
		Delivered: p.delivered.Load(),
		Lost:      p.lost.Load(),
		Dropped:   p.dropped.Load(),
	}
}
