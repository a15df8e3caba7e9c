package solver

import (
	"math"
	"sync/atomic"

	"gridsat/internal/cnf"
)

// This file implements the clause arena: MiniSat-style contiguous clause
// storage replacing the original pointer-per-clause representation. All
// clauses — problem and learned — live in one []uint32 slab and are
// addressed by 32-bit ClauseRefs (word offsets). The layout keeps BCP
// cache-friendly (a clause's header and literals are adjacent), makes the
// database footprint exactly countable (the live-word counter IS the
// clause-database size, no estimation), and enables a compacting garbage
// collector that reclaims the space of deleted clauses and stripped
// literals in one pass.
//
// Clause layout, in 32-bit words:
//
//	[ header ][ activity ][ lit0 ][ lit1 ] ... [ litN-1 ]
//
// header = lbd<<lbdShift | size<<flagBits | flags. lit words hold cnf.Lit
// values verbatim
// (cnf.Lit is a uint32 encoding). The activity word is the float32 bits of
// the clause's VSIDS-era activity for learned clauses (0 for problem
// clauses); during garbage collection it is reused as the forwarding
// address of a relocated clause.

// ClauseRef addresses a clause in an Arena: the word offset of its header.
type ClauseRef uint32

// CRefUndef is the nil ClauseRef ("no clause", e.g. a decision's reason).
const CRefUndef = ClauseRef(^uint32(0))

const (
	flagLearnt  = 1 << 0 // clause was learned (or imported into the learnt DB)
	flagLocal   = 1 << 1 // valid only under this solver's guiding-path assumptions
	flagDeleted = 1 << 2 // lazily detached; space reclaimed by the next GC
	flagReloced = 1 << 3 // GC-internal: clause moved, activity word holds the forward ref
	// flagImported marks a clause merged from a peer (shared clause or
	// split-forwarded learnt) rather than derived locally — the origin bit
	// behind the import-usefulness telemetry.
	flagImported = 1 << 4
	// flagImportUsed marks an imported clause that has participated in at
	// least one BCP implication or conflict resolution, so first use is
	// counted exactly once per clause.
	flagImportUsed = 1 << 5
	flagBits       = 6
	hdrWords       = 2 // header word + activity word

	// The header's top lbdBits carry the clause's LBD (literal blocks
	// distance, "glue"): the number of distinct decision levels among its
	// literals at learn time, saturated at maxLBD. 0 means "not recorded"
	// (problem clauses, imports of unknown provenance). The size field
	// occupies the sizeBits between the flags and the LBD.
	lbdBits  = 6
	lbdShift = 32 - lbdBits
	maxLBD   = 1<<lbdBits - 1
	sizeBits = lbdShift - flagBits
	sizeMask = 1<<sizeBits - 1

	// maxClauseSize is the clause-length limit every reader of clauses
	// shares (the DIMACS parser and the wire decoder refuse longer ones),
	// so any clause that parses or fits a frame fits the header.
	maxClauseSize = cnf.MaxClauseSize
)

// The size field must hold every clause the limit admits.
var _ [sizeMask - maxClauseSize]struct{}

// Arena is a contiguous clause store. It is owned by a single solver
// goroutine; only LiveBytes/WastedBytes are safe to call concurrently.
type Arena struct {
	data []uint32
	// wasted counts dead words (deleted clauses + stripped literals)
	// awaiting compaction; len(data) - wasted is the live word count.
	wasted int64
	// live mirrors the live word count atomically so concurrent memory
	// accessors (heartbeats, budget checks) read an exact figure without
	// touching the slab.
	live atomic.Int64
}

// NewArena returns an arena with capacity for about wordsHint words.
func NewArena(wordsHint int) *Arena {
	if wordsHint < 0 {
		wordsHint = 0
	}
	return &Arena{data: make([]uint32, 0, wordsHint)}
}

// Alloc stores a clause and returns its reference. The literal slice is
// copied; act is recorded for learned clauses (see Act).
func (a *Arena) Alloc(lits []cnf.Lit, learnt, local bool, act float32) ClauseRef {
	n := len(lits)
	if n > maxClauseSize {
		panic("solver: clause too large for arena header")
	}
	if len(a.data)+hdrWords+n > int(^uint32(0))-1 {
		panic("solver: arena exceeds 32-bit addressing")
	}
	h := uint32(n) << flagBits
	if learnt {
		h |= flagLearnt
	}
	if local {
		h |= flagLocal
	}
	r := ClauseRef(len(a.data))
	a.data = append(a.data, h, math.Float32bits(act))
	for _, l := range lits {
		a.data = append(a.data, uint32(l))
	}
	a.live.Add(int64(hdrWords + n))
	return r
}

// Size returns the clause's literal count.
func (a *Arena) Size(r ClauseRef) int { return int(a.data[r] >> flagBits & sizeMask) }

// LBD returns the clause's recorded literal-blocks distance (glue); 0 means
// the LBD was never recorded.
func (a *Arena) LBD(r ClauseRef) int { return int(a.data[r] >> lbdShift) }

// SetLBD records the clause's LBD, saturating at maxLBD. Lower is better;
// glue-2 clauses connect exactly two decision levels and are the classic
// "glue clauses" worth sharing first.
func (a *Arena) SetLBD(r ClauseRef, lbd int) {
	if lbd < 0 {
		lbd = 0
	}
	if lbd > maxLBD {
		lbd = maxLBD
	}
	a.data[r] = uint32(lbd)<<lbdShift | a.data[r]&(1<<lbdShift-1)
}

// Lit returns the clause's i-th literal.
func (a *Arena) Lit(r ClauseRef, i int) cnf.Lit {
	return cnf.Lit(a.data[int(r)+hdrWords+i])
}

// SetLit overwrites the clause's i-th literal.
func (a *Arena) SetLit(r ClauseRef, i int, l cnf.Lit) {
	a.data[int(r)+hdrWords+i] = uint32(l)
}

// Learnt reports whether the clause is in the learned database.
func (a *Arena) Learnt(r ClauseRef) bool { return a.data[r]&flagLearnt != 0 }

// Local reports whether the clause is valid only under this solver's
// guiding-path assumptions (paper §3.2).
func (a *Arena) Local(r ClauseRef) bool { return a.data[r]&flagLocal != 0 }

// SetLocal marks the clause assumption-dependent.
func (a *Arena) SetLocal(r ClauseRef) { a.data[r] |= flagLocal }

// Imported reports whether the clause was merged from a peer (shared
// clause or split-forwarded learnt) rather than derived locally.
func (a *Arena) Imported(r ClauseRef) bool { return a.data[r]&flagImported != 0 }

// SetImported tags the clause as peer-origin; set once at merge time.
func (a *Arena) SetImported(r ClauseRef) { a.data[r] |= flagImported }

// ImportUsed reports whether an imported clause has already been counted
// as used (first BCP implication or conflict resolution).
func (a *Arena) ImportUsed(r ClauseRef) bool { return a.data[r]&flagImportUsed != 0 }

// markImportUsed sets the used bit; the caller checks ImportUsed first so
// first use is counted exactly once.
func (a *Arena) markImportUsed(r ClauseRef) { a.data[r] |= flagImportUsed }

// Deleted reports whether the clause has been freed (watchers drop it
// lazily; the space is reclaimed by the next GC).
func (a *Arena) Deleted(r ClauseRef) bool { return a.data[r]&flagDeleted != 0 }

// Act returns the clause's recorded activity.
func (a *Arena) Act(r ClauseRef) float32 {
	return math.Float32frombits(a.data[r+1])
}

// Free marks the clause deleted and accounts its words as reclaimable.
func (a *Arena) Free(r ClauseRef) {
	if a.data[r]&flagDeleted != 0 {
		return
	}
	a.data[r] |= flagDeleted
	n := int64(hdrWords + a.Size(r))
	a.wasted += n
	a.live.Add(-n)
}

// shrinkTo truncates the clause to its first n literals (level-0
// strengthening); the dropped tail words become reclaimable.
func (a *Arena) shrinkTo(r ClauseRef, n int) {
	old := a.Size(r)
	if n >= old {
		return
	}
	// Preserve the flags and the LBD field; only the size changes. A
	// strengthened clause's glue can only improve, so cap it at the new size.
	a.data[r] = a.data[r]&^uint32(sizeMask<<flagBits) | uint32(n)<<flagBits
	if lbd := a.LBD(r); lbd > n {
		a.SetLBD(r, n)
	}
	a.wasted += int64(old - n)
	a.live.Add(-int64(old - n))
}

// LiveBytes returns the exact byte count of live clause storage (headers
// plus literals of every non-deleted clause). Safe to call concurrently.
func (a *Arena) LiveBytes() int64 { return a.live.Load() * 4 }

// WastedBytes returns the bytes held by deleted clauses and stripped
// literals, reclaimable by the next garbage collection.
func (a *Arena) WastedBytes() int64 { return a.wasted * 4 }

// relocate moves the clause at r from the old slab into a's (new) slab,
// returning its new reference. Repeated calls for the same clause return
// the same forward reference, so shared refs (both watchers, a locked
// reason, the clause list) stay consistent.
func (a *Arena) relocate(old []uint32, r ClauseRef) ClauseRef {
	h := old[r]
	if h&flagReloced != 0 {
		return ClauseRef(old[r+1])
	}
	n := int(h >> flagBits & sizeMask)
	nr := ClauseRef(len(a.data))
	a.data = append(a.data, old[r:int(r)+hdrWords+n]...)
	old[r] = h | flagReloced
	old[r+1] = uint32(nr)
	return nr
}

// garbageCollect compacts the arena: every live clause is copied into a
// fresh slab and every reference the solver holds (watch lists, reasons,
// clause lists) is rewritten. Deleted clauses and stripped-literal tails
// are dropped, so the slab length equals the live word count afterwards.
// Returns the exact number of bytes reclaimed.
func (s *Solver) garbageCollect() int64 {
	reclaimed := s.ca.WastedBytes()
	if reclaimed == 0 {
		return 0
	}
	oldData := s.ca.data
	// Compact into a scratch arena, then adopt its slab. The Arena struct
	// itself (and its atomic live counter, which compaction leaves
	// unchanged) stays in place so concurrent LiveBytes readers never see
	// a torn pointer.
	to := NewArena(int(s.ca.live.Load()))
	// Watch lists: drop watchers of deleted clauses, forward the rest.
	for li := range s.watches {
		ws := s.watches[li]
		kept := ws[:0]
		for _, w := range ws {
			if oldData[w.ref]&flagDeleted != 0 {
				continue
			}
			w.ref = to.relocate(oldData, w.ref)
			kept = append(kept, w)
		}
		s.watches[li] = kept
	}
	// Reasons: every assigned variable is on the trail; a reason pointing
	// at a deleted clause (a level-0 antecedent pruned by simplify) is
	// cleared — it is never dereferenced for level-0 variables, and must
	// not dangle into the old slab.
	for _, l := range s.trail {
		v := l.Var()
		if r := s.reason[v]; r != CRefUndef {
			if oldData[r]&flagDeleted != 0 {
				s.reason[v] = CRefUndef
			} else {
				s.reason[v] = to.relocate(oldData, r)
			}
		}
	}
	s.clauses = relocList(to, oldData, s.clauses)
	s.learnts = relocList(to, oldData, s.learnts)
	s.ca.data = to.data
	s.ca.wasted = 0
	s.stats.ReclaimedBytes += reclaimed
	return reclaimed
}

// relocList forwards a clause list into the new arena, dropping deleted
// entries.
func relocList(to *Arena, oldData []uint32, list []ClauseRef) []ClauseRef {
	kept := list[:0]
	for _, r := range list {
		if oldData[r]&flagDeleted != 0 {
			continue
		}
		kept = append(kept, to.relocate(oldData, r))
	}
	return kept
}

// maybeGC compacts when at least a fifth of the slab is reclaimable
// (MiniSat's garbage_frac heuristic).
func (s *Solver) maybeGC() {
	if s.ca.wasted*5 >= int64(len(s.ca.data)) && s.ca.wasted > 0 {
		s.garbageCollect()
	}
}

// ArenaBytes returns the exact live clause-database size in bytes. Safe to
// call concurrently with Solve.
func (s *Solver) ArenaBytes() int64 { return s.ca.LiveBytes() }

// clauseAt copies the clause at r out of the arena.
func (s *Solver) clauseAt(r ClauseRef) cnf.Clause {
	n := s.ca.Size(r)
	out := make(cnf.Clause, n)
	for i := 0; i < n; i++ {
		out[i] = s.ca.Lit(r, i)
	}
	return out
}
