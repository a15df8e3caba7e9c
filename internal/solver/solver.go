// Package solver implements the zChaff-style CDCL engine at the core of
// GridSAT, exactly as the paper describes it (§2): DPLL search with
// two-watched-literal Boolean constraint propagation, VSIDS decision
// heuristics (per-literal decaying counters), FirstUIP conflict analysis
// with clause learning, and non-chronological backjumping.
//
// On top of the sequential engine the package provides the hooks GridSAT's
// distributed layer needs (§3): level-0 clause pruning, export of short
// learned clauses, batched import of clauses from other clients (merged
// only when the solver is back at the first decision level), the Figure-2
// search-space split, run limits (conflicts, propagations, wall time,
// memory budget), and light/heavy checkpoints (§3.4).
package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gridsat/internal/cnf"
)

// Status is the satisfiability status of a (sub)problem.
type Status int

// Solve statuses.
const (
	StatusUnknown Status = iota // not yet determined
	StatusSAT
	StatusUNSAT
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusSAT:
		return "SAT"
	case StatusUNSAT:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// MarshalText renders the status as String does, so a status reads as text
// in JSON.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses what MarshalText writes.
func (s *Status) UnmarshalText(b []byte) error {
	for _, v := range []Status{StatusUnknown, StatusSAT, StatusUNSAT} {
		if string(b) == v.String() {
			*s = v
			return nil
		}
	}
	return fmt.Errorf("solver: unknown status %q", b)
}

// StopReason explains why Solve returned.
type StopReason int

// Reasons Solve can return.
const (
	ReasonSolved        StopReason = iota // Status is SAT or UNSAT
	ReasonConflictLimit                   // Limits.MaxConflicts reached
	ReasonPropLimit                       // Limits.MaxPropagations reached
	ReasonTimeout                         // Limits.MaxTime elapsed
	ReasonMemLimit                        // Limits.MaxMemoryBytes exceeded
	ReasonStopped                         // Stop() was called
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case ReasonSolved:
		return "solved"
	case ReasonConflictLimit:
		return "conflict-limit"
	case ReasonPropLimit:
		return "propagation-limit"
	case ReasonTimeout:
		return "timeout"
	case ReasonMemLimit:
		return "memory-limit"
	case ReasonStopped:
		return "stopped"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Result is the outcome of a Solve call.
type Result struct {
	Status Status
	Reason StopReason
	// Model holds a satisfying assignment when Status is StatusSAT.
	Model cnf.Assignment
}

// Limits bounds a Solve call. Zero fields mean "unlimited".
type Limits struct {
	MaxConflicts    int64
	MaxPropagations int64
	MaxTime         time.Duration
	// MaxMemoryBytes bounds the solver's estimated clause-database size —
	// the budget a GridSAT client derives from its host's free memory
	// (the paper's 60%-of-free-memory rule).
	MaxMemoryBytes int64
}

// Options configures the engine. The zero value is usable. Two presets
// name the configurations in use: DefaultOptions is the engine the shipped
// commands run, Fidelity2003 the paper's zChaff-2003 client that every
// EXPERIMENTS.md table is pinned to.
type Options struct {
	// DecayInterval is the number of conflicts between VSIDS decays
	// (Chaff divides all literal counters by 2 periodically).
	DecayInterval int
	// RestartBase is the base interval of the restart sequence in
	// conflicts; 0 disables restarts regardless of RestartPolicy.
	RestartBase int
	// RestartPolicy selects how the restart interval evolves between
	// restarts (the portfolio diversification axis HordeSat exploits).
	// The zero value, RestartLuby, reproduces the historical behavior.
	RestartPolicy RestartPolicy
	// ShareMaxLen is the maximum length of learned clauses passed to
	// OnLearn for distribution to other clients (the paper uses 10 and 3).
	// 0 disables sharing.
	ShareMaxLen int
	// OnLearn, when set, receives a copy of every learned clause of length
	// at most ShareMaxLen together with its LBD (glue) at learn time, so
	// share buffers can rank exports by quality. Called on the solving
	// goroutine.
	OnLearn func(c cnf.Clause, lbd int)
	// PruneLevel0 enables removal of clauses satisfied at decision level 0
	// (the paper's "inconsequential clause" pruning, §3.1). The paper also
	// backports this to its sequential baseline; it defaults to on.
	PruneLevel0 bool
	// MaxLearnts is the initial learned-clause cap: reduceDB runs when the
	// learnt list outgrows it, deletes half in Reduce's order and raises
	// the cap by a fifth. 0 derives it from the problem size (a third of
	// the problem clauses + 2000) under either preset.
	MaxLearnts int
	// Reduce selects which half reduceDB deletes. The zero value,
	// ReduceByAge, is the 2003 engine's; DefaultOptions sets ReduceByLBD.
	Reduce ReduceOrder
	// MinimizeLearnts enables recursive learned-clause minimization, a
	// post-Chaff refinement (the 2003 engine did not minimize): on in
	// DefaultOptions, off in Fidelity2003. `benchtab -ablation engine`
	// quantifies its effect distributed.
	MinimizeLearnts bool
	// PhaseSaving makes decisions reuse the variable's last assigned
	// polarity (progress saving, another post-Chaff refinement). Off by
	// default for 2003 fidelity.
	PhaseSaving bool
	// Seed diversifies the search deterministically: a non-zero seed
	// randomizes each variable's initial decision polarity (and feeds
	// PhaseRand). Seed 0 is bit-identical to the historical engine —
	// the Figure-1 determinism guard depends on that. Same seed, same run.
	Seed int64
	// Phase selects the decision-polarity policy. The zero value,
	// PhaseVSIDS, keeps the historical behavior (the VSIDS heap's literal
	// polarity, perturbed per-variable when Seed is non-zero).
	Phase PhaseMode
	// DecisionOverride, when non-nil, is consulted before VSIDS on each
	// decision; returning cnf.NoLit falls through to VSIDS. Used by tests
	// to replay the paper's worked examples.
	DecisionOverride func(s *Solver) cnf.Lit
	// OnLemma, when non-nil, receives every learned clause in derivation
	// order for RUP/DRUP proof logging (see internal/proof). zChaff's
	// companion zVerify checked such traces; the same discipline lets an
	// independent checker certify this engine's UNSAT answers. Sequential
	// runs only: imported clauses from other clients would break the local
	// derivation order.
	OnLemma func(cnf.Clause)
}

// RestartPolicy selects a restart-interval schedule. Together with
// PhaseMode and Seed it forms the portfolio diversification axes: workers
// on the same subproblem explore it in genuinely different orders.
type RestartPolicy int

// Restart schedules.
const (
	// RestartLuby is the Luby series scaled by RestartBase (the default,
	// and the only schedule the engine had before portfolio clients).
	RestartLuby RestartPolicy = iota
	// RestartNone disables restarts even with a non-zero RestartBase.
	RestartNone
	// RestartFixed restarts every RestartBase conflicts.
	RestartFixed
	// RestartGeometric doubles the interval after every restart,
	// starting from RestartBase.
	RestartGeometric
)

// String implements fmt.Stringer.
func (p RestartPolicy) String() string {
	switch p {
	case RestartLuby:
		return "luby"
	case RestartNone:
		return "none"
	case RestartFixed:
		return "fixed"
	case RestartGeometric:
		return "geometric"
	}
	return fmt.Sprintf("RestartPolicy(%d)", int(p))
}

// PhaseMode selects the polarity given to a VSIDS-chosen decision
// variable (before PhaseSaving, which still wins when enabled).
type PhaseMode int

// Phase policies.
const (
	// PhaseVSIDS keeps the polarity the VSIDS heap produced, flipped
	// per-variable by the Seed-derived mask when Seed is non-zero.
	PhaseVSIDS PhaseMode = iota
	// PhasePos always decides the positive literal.
	PhasePos
	// PhaseNeg always decides the negative literal.
	PhaseNeg
	// PhaseRand fixes each variable's polarity from the Seed-derived
	// mask (deterministic per seed, ~50/50 across variables).
	PhaseRand
)

// String implements fmt.Stringer.
func (m PhaseMode) String() string {
	switch m {
	case PhaseVSIDS:
		return "vsids"
	case PhasePos:
		return "pos"
	case PhaseNeg:
		return "neg"
	case PhaseRand:
		return "rand"
	}
	return fmt.Sprintf("PhaseMode(%d)", int(m))
}

// ReduceOrder names the order in which reduceDB gives up learnt clauses.
type ReduceOrder int

// Reduction orders.
const (
	// ReduceByAge deletes the half with the lowest age key, the VSIDS
	// increment at learn time narrowed to float32. The key saturates at
	// MaxFloat32 after 128 decays (≈ 32.8k conflicts at DecayInterval 256);
	// from then on new clauses tie and the half deleted is whatever
	// sort.Slice leaves in front. Kept as is: every EXPERIMENTS.md table is
	// pinned to this engine.
	ReduceByAge ReduceOrder = iota
	// ReduceByLBD deletes the half with the highest LBD (glue), oldest first
	// within one LBD, and never a clause of glue <= 2. Age is the learnt
	// list's own order, which cannot saturate.
	ReduceByLBD
)

// Fidelity2003 returns the paper's client: zChaff 2003 as §2 describes it,
// with no learnt-clause minimization and age-keyed database reduction.
// Figure 1, Tables 1 and 2, the DES (`gridsat sim`, cmd/benchtab) and
// cmd/zchaff run it, so the reproduction does not move when the shipped
// engine does.
func Fidelity2003() Options {
	return Options{
		DecayInterval: 256,
		RestartBase:   512,
		PruneLevel0:   true,
	}
}

// DefaultOptions returns the engine `gridsat solve`, `run`, `serve` jobs
// and `client` ship: Fidelity2003 plus recursive learnt-clause minimization
// and LBD-ordered database reduction.
func DefaultOptions() Options {
	o := Fidelity2003()
	o.MinimizeLearnts = true
	o.Reduce = ReduceByLBD
	return o
}

// Clauses live in a contiguous arena (see arena.go) and are addressed by
// ClauseRef. The per-clause flags (learnt, local — paper §3.2's
// "only valid for the current client" marking — and deleted) are header
// bits; watchers carry a blocker literal so BCP can skip satisfied
// clauses without touching clause memory.
type watcher struct {
	ref ClauseRef
	// blocker is some other literal of the clause; if it is already true
	// the clause is satisfied and need not be inspected.
	blocker cnf.Lit
}

// Solver is a single CDCL engine instance. It is not safe for concurrent
// use except for Stop, ImportClauses, and the read-only
// stats/memory accessors, which may be called from other goroutines.
type Solver struct {
	opts Options

	nVars   int
	ca      *Arena      // all clause storage
	clauses []ClauseRef // problem clauses (and imported non-learnt merges)
	learnts []ClauseRef

	watches [][]watcher // indexed by Lit

	// vals is the one truth-value store, indexed by literal: vals[l] and
	// vals[l^1] are set together on enqueue and cleared together on
	// backtrack, so BCP reads a literal's value in one load with no
	// per-variable lookup or sign flip.
	vals     []cnf.LBool
	level    []int32
	reason   []ClauseRef
	trail    []cnf.Lit
	trailLim []int
	qhead    int

	// VSIDS: per-literal activities with a max-heap (lazy removal).
	activity []float64
	heap     litHeap
	actInc   float64

	maxLearnts  int
	model       cnf.Assignment
	status      Status
	emptyClause bool // an empty clause was added: trivially UNSAT

	// Shared-clause import buffer (paper §3.2): merged at level 0, or by a
	// forced restart once it has waited importMergeAfter conflicts
	// (importMergeConflicts; a test may shorten it).
	importMu         sync.Mutex
	importBuf        []pendingImport
	importMergeAfter int

	stop atomic.Bool

	rng   *rand.Rand
	stats Stats

	conflictsSinceRestart int
	restartCount          int
	importWaitConflicts   int
	lastSimplifyTrail     int
	seen                  []bool // scratch for analyze
	// Conflict-path scratch, reused from conflict to conflict: analyze
	// builds the learned clause and its guiding-path dependencies in
	// learntBuf/depsBuf (valid until the next analyze); minimize and
	// litRedundant walk the implication graph over the other three.
	learntBuf cnf.Clause
	depsBuf   []cnf.Lit
	redStack  []cnf.Lit
	redMarked []cnf.Var
	redGone   []cnf.Var
	// lbdSeen/lbdTick stamp decision levels during LBD computation, so
	// counting distinct levels among a learned clause's literals costs one
	// pass and no allocation per conflict.
	lbdSeen []int32
	lbdTick int32
	// tainted[v] marks variables whose current assignment depends on the
	// guiding-path assumptions rather than the base formula alone.
	tainted    []bool
	numTainted int
	// path is this solver's guiding path: the split literals separating
	// its subspace from the root problem (Subproblem.Cube). Empty for the
	// root; installed by NewFromSubproblem and extended by every split.
	path []cnf.Lit
	// savedPhase remembers each variable's last polarity for PhaseSaving.
	savedPhase []cnf.LBool
	// phaseFlip is the Seed-derived per-variable polarity mask consulted
	// by decide (nil when Seed is 0 and Phase does not need it, keeping
	// the seedless engine bit-identical to the historical one).
	phaseFlip []bool
}

// New builds a solver over f's clauses with the given options.
// The formula is copied; the solver never mutates f.
func New(f *cnf.Formula, opts Options) *Solver {
	occ := make([]int, 2*f.NumVars)
	lits := 0
	for _, c := range f.Clauses {
		lits += len(c)
		for _, l := range c {
			occ[l]++
		}
	}
	words := hdrWords*len(f.Clauses) + lits
	s := &Solver{
		opts:     opts,
		nVars:    f.NumVars,
		ca:       NewArena(words + words/2),
		vals:     make([]cnf.LBool, 2*f.NumVars),
		level:    make([]int32, f.NumVars),
		reason:   make([]ClauseRef, f.NumVars),
		watches:  make([][]watcher, 2*f.NumVars),
		activity: make([]float64, 2*f.NumVars),
		actInc:   1,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		seen:     make([]bool, f.NumVars),
		tainted:  make([]bool, f.NumVars),
		lbdSeen:  make([]int32, f.NumVars+1),

		importMergeAfter: importMergeConflicts,
	}
	// One slab backs every watch list, cut by occurrence count: problem
	// clauses alone can never put more watchers on ¬l's list than l has
	// occurrences, so a list reallocates only once learnt clauses outgrow it.
	slab := make([]watcher, lits)
	for l, n := range occ {
		s.watches[l^1] = slab[:0:n]
		slab = slab[n:]
	}
	for v := range s.reason {
		s.reason[v] = CRefUndef
	}
	if opts.PhaseSaving {
		s.savedPhase = make([]cnf.LBool, f.NumVars)
	}
	if opts.Seed != 0 || opts.Phase == PhaseRand {
		s.phaseFlip = make([]bool, f.NumVars)
		for v := range s.phaseFlip {
			s.phaseFlip[v] = s.rng.Intn(2) == 1
		}
	}
	s.heap = newLitHeap(s.activity)
	for _, c := range f.Clauses {
		s.addProblemClause(c)
	}
	if opts.MaxLearnts > 0 {
		s.maxLearnts = opts.MaxLearnts
	} else {
		s.maxLearnts = len(s.clauses)/3 + 2000
	}
	// Seed VSIDS: Chaff initializes counters from occurrences in the
	// initial clause database.
	for _, r := range s.clauses {
		for i, n := 0, s.ca.Size(r); i < n; i++ {
			s.activity[s.ca.Lit(r, i)]++
		}
	}
	for l := 0; l < 2*s.nVars; l++ {
		s.heap.push(cnf.Lit(l))
	}
	return s
}

// addProblemClause normalizes and installs an original clause.
func (s *Solver) addProblemClause(c cnf.Clause) {
	s.learntBuf = append(s.learntBuf[:0], c...) // scratch: Alloc copies what survives
	norm, taut := s.learntBuf.Normalize()
	if taut {
		return
	}
	switch len(norm) {
	case 0:
		s.emptyClause = true
		s.status = StatusUNSAT
		return
	case 1:
		// Unit problem clause: a level-0 fact (the paper's example puts
		// V14 from clause 9 at level 0). Conflicts surface in Solve.
		s.pendingUnit(norm[0])
		return
	}
	r := s.ca.Alloc(norm, false, false, 0)
	s.clauses = append(s.clauses, r)
	s.attach(r)
}

// pendingUnit enqueues a level-0 fact; contradictions mark UNSAT.
func (s *Solver) pendingUnit(l cnf.Lit) {
	switch s.vals[l] {
	case cnf.True:
		return
	case cnf.False:
		s.status = StatusUNSAT
		return
	}
	s.uncheckedEnqueue(l, CRefUndef)
}

func (s *Solver) attach(r ClauseRef) {
	l0, l1 := s.ca.Lit(r, 0), s.ca.Lit(r, 1)
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{ref: r, blocker: l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{ref: r, blocker: l0})
}

// detach is lazy: the clause is flagged and watchers drop it when visited;
// the arena reclaims the space at the next compaction.
func (s *Solver) detach(r ClauseRef) {
	s.ca.Free(r)
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return s.nVars }

// DecisionLevel returns the current decision level (0 = no decisions).
func (s *Solver) DecisionLevel() int { return len(s.trailLim) }

// Value returns the current value of v.
func (s *Solver) Value(v cnf.Var) cnf.LBool { return s.vals[cnf.PosLit(v)] }

// LevelOf returns the decision level at which v was assigned; meaningless
// for unassigned variables.
func (s *Solver) LevelOf(v cnf.Var) int { return int(s.level[v]) }

// Status returns the determined status, if any.
func (s *Solver) Status() Status { return s.status }

// Model returns the satisfying assignment found by a SAT result.
func (s *Solver) Model() cnf.Assignment { return s.model.Clone() }

// NumLearnts returns the live learned-clause count.
func (s *Solver) NumLearnts() int {
	n := 0
	for _, r := range s.learnts {
		if !s.ca.Deleted(r) {
			n++
		}
	}
	return n
}

// MemoryBytes returns the solver's memory footprint in bytes: the exact
// live clause-arena size (see ArenaBytes) plus the fixed per-variable
// overhead of the trail/watch/activity structures. GridSAT clients compare
// it against their host memory budget to decide when to request a split
// (paper §3.3). Safe to call concurrently with Solve.
func (s *Solver) MemoryBytes() int64 {
	return s.ca.LiveBytes() + int64(s.nVars)*40
}

// Stop asynchronously interrupts a running Solve; it returns with
// ReasonStopped at the next decision boundary. Safe from any goroutine.
func (s *Solver) Stop() { s.stop.Store(true) }

// Assume enqueues assumption literals at decision level 0 — the mechanism
// by which a split recipient adopts its subproblem's guiding assignments.
// It must be called before Solve. A conflicting assumption set marks the
// subproblem UNSAT.
func (s *Solver) Assume(lits ...cnf.Lit) error {
	if s.DecisionLevel() != 0 {
		return errors.New("solver: Assume requires decision level 0")
	}
	for _, l := range lits {
		if int(l.Var()) >= s.nVars {
			return fmt.Errorf("solver: assumption %v out of range", l)
		}
		switch s.vals[l] {
		case cnf.True:
			continue
		case cnf.False:
			s.status = StatusUNSAT
			return nil
		}
		s.taint(l.Var())
		s.uncheckedEnqueue(l, CRefUndef)
	}
	return nil
}

// taint marks v's assignment as assumption-dependent.
func (s *Solver) taint(v cnf.Var) {
	if !s.tainted[v] {
		s.tainted[v] = true
		s.numTainted++
	}
}

// Level0Lits returns the literals currently fixed at decision level 0 —
// the content of a light checkpoint and the assignment prefix shipped in a
// split message.
func (s *Solver) Level0Lits() []cnf.Lit {
	end := len(s.trail)
	if len(s.trailLim) > 0 {
		end = s.trailLim[0]
	}
	out := make([]cnf.Lit, end)
	copy(out, s.trail[:end])
	return out
}

// uncheckedEnqueue records a new assignment with its antecedent clause.
func (s *Solver) uncheckedEnqueue(l cnf.Lit, from ClauseRef) {
	s.vals[l], s.vals[l^1] = cnf.True, cnf.False
	s.level[l.Var()] = int32(s.DecisionLevel())
	s.reason[l.Var()] = from
	s.trail = append(s.trail, l)
	// Taint flows through implications: an assignment forced by a local
	// clause, or by any clause containing a tainted literal, itself
	// depends on the assumptions. Skipped entirely while no taint exists,
	// so the sequential baseline pays nothing.
	if from != CRefUndef && (s.numTainted > 0 || s.ca.Local(from)) {
		if s.ca.Local(from) {
			s.taint(l.Var())
			return
		}
		for i, n := 0, s.ca.Size(from); i < n; i++ {
			if s.tainted[s.ca.Lit(from, i).Var()] {
				s.taint(l.Var())
				return
			}
		}
	}
}

// propagate runs BCP over the watch lists; it returns the conflicting
// clause's reference or CRefUndef. This is the >90%-of-runtime hot path
// the paper describes, so a watcher visit is ordered by cost: the blocker's
// value (one byte of vals) is tested first, and only when it is not true is
// the clause's header and body read from the arena slab — a satisfied
// clause costs no clause-memory access at all. The watcher of a deleted
// clause is therefore dropped here only once its blocker stops being true;
// until then it is inert, and garbageCollect filters every such watcher
// before the slab under it is reused. The list is compacted in place behind
// the read index, and the watcher visit order, the position-0/1 swaps in
// clause memory and the order of appends to other lists are exactly those
// of the straightforward loop: learnt-clause literal order reaches the
// wire and checkpoints.
func (s *Solver) propagate() ClauseRef {
	popped := int64(0)
	data := s.ca.data // no allocation happens during propagation
	vals := s.vals
	confl := CRefUndef
	for confl == CRefUndef && s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; visit watchers of p's complement
		s.qhead++
		popped++
		falseLit := p.Not()
		ws := s.watches[p]
		i, j := 0, 0
		for i < len(ws) {
			w := ws[i]
			i++
			if vals[w.blocker] == cnf.True {
				ws[j] = w
				j++
				continue
			}
			h := data[w.ref]
			if h&flagDeleted != 0 {
				continue // lazily drop watchers of deleted clauses
			}
			base := int(w.ref) + hdrWords
			n := int(h >> flagBits & sizeMask)
			lits := data[base : base+n : base+n]
			// Ensure the false literal is at position 1.
			if cnf.Lit(lits[0]) == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := cnf.Lit(lits[0])
			w.blocker = first
			if vals[first] == cnf.True {
				ws[j] = w
				j++
				continue
			}
			// Look for a new literal to watch.
			k := 2
			for k < len(lits) && vals[lits[k]] == cnf.False {
				k++
			}
			if k < len(lits) {
				lits[1], lits[k] = lits[k], lits[1]
				nw := lits[1] ^ 1
				s.watches[nw] = append(s.watches[nw], w)
				continue
			}
			// Clause is unit or conflicting on first.
			ws[j] = w
			j++
			if vals[first] == cnf.False {
				// Conflict: keep the remaining watchers and bail out.
				j += copy(ws[j:], ws[i:])
				confl = w.ref
				s.qhead = len(s.trail)
				break
			}
			s.stats.Implications++
			if h&flagImported != 0 {
				// Import-usefulness: the reason clause came from a peer. The
				// header word h is already loaded, so this is one bit-test on
				// the hot path; first use flips the header bit so a clause
				// counts as useful at most once.
				s.stats.ImportedImplications++
				if h&flagImportUsed == 0 {
					data[w.ref] = h | flagImportUsed
					s.stats.ImportedUseful++
				}
			}
			s.uncheckedEnqueue(first, w.ref)
		}
		s.watches[p] = ws[:j]
	}
	s.stats.Propagations += popped
	return confl
}

// analyze performs FirstUIP conflict analysis (paper §2.2–2.3): walk the
// implication graph backward from the conflict, resolving on literals of
// the current decision level until a single one — the first unique
// implication point — remains. Returns the learned clause (asserting
// literal first), the backjump level (the maximum level among the other
// literals), the distinct guiding-path (tainted level-0) literals the
// derivation rests on, and whether a local-only clause was used.
//
// The deps list is how clause sharing stays sound under the paper's §3.2
// constraint: the short clause stored locally is valid only under this
// client's assumptions, but appending deps yields a clause implied by the
// base formula alone, which is what gets shared globally.
//
// learnt and deps live in solver-owned scratch and stay valid until the
// next analyze; record clones whatever outlives that.
func (s *Solver) analyze(confl ClauseRef) (learnt cnf.Clause, back int, deps []cnf.Lit, localUsed bool, lbd int) {
	learnt = append(s.learntBuf[:0], cnf.NoLit) // learnt[0] reserved for the UIP literal
	deps = s.depsBuf[:0]
	counter := 0
	p := cnf.NoLit
	idx := len(s.trail) - 1
	cur := int32(s.DecisionLevel())

	ca := s.ca
	c := confl
	for {
		if ca.Local(c) {
			localUsed = true // derivation rests on an assumption-only clause
		}
		if ca.Imported(c) {
			// Import-usefulness: a peer-origin clause takes part in this
			// conflict derivation.
			s.stats.ImportedResolutions++
			if !ca.ImportUsed(c) {
				ca.markImportUsed(c)
				s.stats.ImportedUseful++
			}
		}
		for k, n := 0, ca.Size(c); k < n; k++ {
			q := ca.Lit(c, k)
			if q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] {
				continue
			}
			if s.level[v] == 0 {
				if s.tainted[v] {
					// The derivation depends on this guiding-path literal.
					s.seen[v] = true
					deps = append(deps, q)
				}
				continue
			}
			s.seen[v] = true
			s.bump(q)
			if s.level[v] >= cur {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select the next trail literal to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
		idx--
	}
	learnt[0] = p.Not()
	if s.opts.MinimizeLearnts {
		learnt, deps = s.minimize(learnt, deps)
	}
	s.learntBuf, s.depsBuf = learnt, deps // keep whatever capacity they grew
	for _, q := range learnt[1:] {
		s.seen[q.Var()] = false
	}
	for _, q := range deps {
		s.seen[q.Var()] = false
	}
	// Backjump to the highest level among the non-asserting literals.
	back = 0
	for i := 1; i < len(learnt); i++ {
		if l := int(s.level[learnt[i].Var()]); l > back {
			back = l
		}
	}
	// Chaff's VSIDS also counts the learned clause's literals (it is a new
	// clause entering the database); bump the asserting literal too.
	s.bump(learnt[0])
	// The LBD must be measured here, while every literal of the learned
	// clause is still assigned — the caller backjumps before record.
	lbd = s.computeLBD(learnt)
	return learnt, back, deps, localUsed, lbd
}

// computeLBD counts the distinct decision levels among the clause's
// literals — the literal-blocks distance ("glue"). Lower is better: a
// glue-2 clause links exactly two decision levels and tends to stay useful,
// which is why exports are ranked LBD-first. Only valid while all literals
// are assigned.
func (s *Solver) computeLBD(c cnf.Clause) int {
	s.lbdTick++
	n := 0
	for _, l := range c {
		lv := s.level[l.Var()]
		if s.lbdSeen[lv] != s.lbdTick {
			s.lbdSeen[lv] = s.lbdTick
			n++
		}
	}
	return n
}

// minimize removes redundant literals from a learned clause: a literal is
// redundant when its reason clause's literals are all already in the
// clause (or recursively redundant). Guiding-path dependencies uncovered
// while chasing reasons are added to deps so shared clauses stay globally
// valid. Requires seen[] to be set exactly for learnt[1:] and deps, which
// analyze guarantees; removed literals' seen bits are cleared here.
func (s *Solver) minimize(learnt cnf.Clause, deps []cnf.Lit) (cnf.Clause, []cnf.Lit) {
	w := 1
	gone := s.redGone[:0]
	for i := 1; i < len(learnt); i++ {
		q := learnt[i]
		redundant := false
		if s.reason[q.Var()] != CRefUndef {
			deps, redundant = s.litRedundant(q, deps)
		}
		if !redundant {
			learnt[w] = q
			w++
		} else {
			// Keep the seen bit until every literal is checked: a removed
			// literal is implied by the rest, so later redundancy checks
			// may soundly treat it as still present.
			gone = append(gone, q.Var())
		}
	}
	for _, v := range gone {
		s.seen[v] = false
	}
	s.redGone = gone
	return learnt[:w], deps
}

// litRedundant reports whether q's falsity is implied by the other clause
// literals, walking the implication graph. New tainted level-0 literals
// found on the way are appended to deps (and marked seen); a failed check
// leaves deps and seen as it found them.
func (s *Solver) litRedundant(q cnf.Lit, deps []cnf.Lit) ([]cnf.Lit, bool) {
	stack := append(s.redStack[:0], q)
	marked := s.redMarked[:0] // vars temporarily marked during this check
	found := len(deps)        // deps[found:] are this check's discoveries
	redundant := true
walk:
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := s.reason[l.Var()]
		if c == CRefUndef {
			redundant = false // walked back to a decision
			break
		}
		for k, n := 0, s.ca.Size(c); k < n; k++ {
			r := s.ca.Lit(c, k)
			v := r.Var()
			if v == l.Var() || s.seen[v] {
				continue
			}
			if s.level[v] == 0 {
				if s.tainted[v] {
					s.seen[v] = true
					marked = append(marked, v) // dedup within this check
					deps = append(deps, r)
				}
				continue
			}
			if s.reason[v] == CRefUndef {
				redundant = false
				break walk
			}
			s.seen[v] = true
			marked = append(marked, v)
			stack = append(stack, r)
		}
	}
	// Clear every temporary mark; on success the dependencies found are
	// real dependencies of the clause and keep theirs.
	for _, v := range marked {
		s.seen[v] = false
	}
	if redundant {
		for _, d := range deps[found:] {
			s.seen[d.Var()] = true
		}
	} else {
		deps = deps[:found]
	}
	s.redStack, s.redMarked = stack, marked
	return deps, redundant
}

// backtrackTo undoes all assignments above the given decision level.
func (s *Solver) backtrackTo(level int) {
	if s.DecisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		if s.savedPhase != nil {
			s.savedPhase[v] = s.vals[cnf.PosLit(v)]
		}
		s.vals[l], s.vals[l^1] = cnf.Undef, cnf.Undef
		s.reason[v] = CRefUndef
		if s.tainted[v] {
			s.tainted[v] = false
			s.numTainted--
		}
		s.heap.push(cnf.PosLit(v))
		s.heap.push(cnf.NegLit(v))
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	if s.qhead > bound {
		s.qhead = bound
	}
}

// record attaches a learned clause and enqueues its asserting literal.
// The caller must already have backjumped to the clause's assertion level.
//
// The stored clause omits the guiding-path dependencies (deps) — locally
// they are permanently false — and is marked local when any exist. The
// version offered for global sharing has deps appended, restoring validity
// under the base formula alone; derivations through local-only clauses
// cannot be repaired that way and are never exported.
func (s *Solver) record(learnt cnf.Clause, deps []cnf.Lit, localUsed bool, lbd int) {
	s.stats.Learned++
	// learnt and deps are analyze's scratch: what a callback receives must
	// be its own copy.
	if s.opts.OnLemma != nil {
		s.opts.OnLemma(concat(learnt, deps))
	}
	local := localUsed || len(deps) > 0
	if !localUsed && s.opts.OnLearn != nil && s.opts.ShareMaxLen > 0 &&
		len(learnt)+len(deps) <= s.opts.ShareMaxLen {
		s.opts.OnLearn(concat(learnt, deps), lbd)
		s.stats.Exported++
	}
	if len(learnt) == 1 {
		s.uncheckedEnqueue(learnt[0], CRefUndef)
		if local {
			s.taint(learnt[0].Var())
		}
		return
	}
	// Watch the asserting literal and the highest-level other literal so
	// backjumping keeps the watches valid.
	best := 1
	for i := 2; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] > s.level[learnt[best].Var()] {
			best = i
		}
	}
	learnt[1], learnt[best] = learnt[best], learnt[1]
	r := s.ca.Alloc(learnt, true, local, clauseAct(s.actInc))
	s.ca.SetLBD(r, lbd)
	s.learnts = append(s.learnts, r)
	s.attach(r)
	s.uncheckedEnqueue(learnt[0], r)
}

// concat returns a fresh clause: a's literals followed by b's.
func concat(a cnf.Clause, b []cnf.Lit) cnf.Clause {
	return append(append(make(cnf.Clause, 0, len(a)+len(b)), a...), b...)
}

// clauseAct narrows the VSIDS-era activity to the arena's float32 slot.
func clauseAct(a float64) float32 {
	if a > math.MaxFloat32 {
		return math.MaxFloat32
	}
	return float32(a)
}

// bump increases a literal's VSIDS activity.
func (s *Solver) bump(l cnf.Lit) {
	s.activity[l] += s.actInc
	if s.activity[l] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.actInc *= 1e-100
	}
	s.heap.update(l)
}

// decay implements Chaff's periodic divide-all-counters-by-two by scaling
// the increment instead (equivalent ordering, O(1)).
func (s *Solver) decay() { s.actInc *= 2 }

// decide picks the next decision literal via VSIDS (or the test override).
// Returns false when every variable is assigned.
func (s *Solver) decide() bool {
	if s.opts.DecisionOverride != nil {
		if l := s.opts.DecisionOverride(s); l != cnf.NoLit {
			s.newDecisionLevel()
			s.uncheckedEnqueue(l, CRefUndef)
			s.stats.Decisions++
			return true
		}
	}
	for {
		l, ok := s.heap.popMax()
		if !ok {
			return false
		}
		if s.vals[l] != cnf.Undef {
			continue
		}
		switch s.opts.Phase {
		case PhasePos:
			l = cnf.MkLit(l.Var(), false)
		case PhaseNeg:
			l = cnf.MkLit(l.Var(), true)
		case PhaseRand:
			l = cnf.MkLit(l.Var(), s.phaseFlip[l.Var()])
		default:
			// PhaseVSIDS: keep the heap's polarity, perturbed by the
			// Seed mask when one was built (Seed 0 leaves it nil, so
			// the seedless engine stays bit-identical).
			if s.phaseFlip != nil && s.phaseFlip[l.Var()] {
				l = l.Not()
			}
		}
		if s.savedPhase != nil {
			// Progress saving: keep the variable choice from VSIDS but
			// reuse the polarity the search last assigned it.
			if ph := s.savedPhase[l.Var()]; ph != cnf.Undef {
				l = cnf.MkLit(l.Var(), ph == cnf.False)
			}
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(l, CRefUndef)
		s.stats.Decisions++
		return true
	}
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

// Solve runs CDCL search until the problem is decided, a limit is hit, or
// Stop is called. It may be called repeatedly with fresh limits to resume.
func (s *Solver) Solve(lim Limits) Result {
	if s.status != StatusUnknown {
		return s.finished()
	}
	start := time.Now()
	startConflicts := s.stats.Conflicts
	startProps := s.stats.Propagations
	restartLimit := s.restartThreshold()

	for {
		if s.stop.Load() {
			s.stop.Store(false)
			return Result{Status: StatusUnknown, Reason: ReasonStopped}
		}
		if lim.MaxConflicts > 0 && s.stats.Conflicts-startConflicts >= lim.MaxConflicts {
			return Result{Status: StatusUnknown, Reason: ReasonConflictLimit}
		}
		if lim.MaxPropagations > 0 && s.stats.Propagations-startProps >= lim.MaxPropagations {
			return Result{Status: StatusUnknown, Reason: ReasonPropLimit}
		}
		if lim.MaxTime > 0 && time.Since(start) >= lim.MaxTime {
			return Result{Status: StatusUnknown, Reason: ReasonTimeout}
		}
		if lim.MaxMemoryBytes > 0 && s.MemoryBytes() > lim.MaxMemoryBytes {
			return Result{Status: StatusUnknown, Reason: ReasonMemLimit}
		}

		confl := s.propagate()
		if confl != CRefUndef {
			s.stats.Conflicts++
			s.conflictsSinceRestart++
			if s.DecisionLevel() == 0 {
				s.status = StatusUNSAT
				return s.finished()
			}
			learnt, back, deps, localUsed, lbd := s.analyze(confl)
			s.backtrackTo(back)
			s.record(learnt, deps, localUsed, lbd)
			if s.opts.DecayInterval > 0 && s.stats.Conflicts%int64(s.opts.DecayInterval) == 0 {
				s.decay()
			}
			if s.hasImports() {
				s.importWaitConflicts++
			}
			continue
		}

		// No conflict. Handle level-0 housekeeping and restarts.
		if s.DecisionLevel() == 0 {
			if !s.mergeImports() {
				s.status = StatusUNSAT
				return s.finished()
			}
			if s.qhead != len(s.trail) {
				// Merged imports implied level-0 units; propagate them
				// before deciding, or a conflict among them would surface
				// at a positive decision level and confuse analysis.
				continue
			}
			if s.opts.PruneLevel0 {
				s.simplify()
			}
		} else if s.needMergeRestart() {
			s.backtrackTo(0)
			continue
		}
		if restartLimit > 0 && s.conflictsSinceRestart >= restartLimit {
			s.conflictsSinceRestart = 0
			s.restartCount++
			s.stats.Restarts++
			restartLimit = s.restartThreshold()
			s.backtrackTo(0)
			continue
		}
		if len(s.learnts) > s.maxLearnts {
			s.reduceDB()
		}
		if !s.decide() {
			s.model = make(cnf.Assignment, s.nVars)
			for v := range s.model {
				s.model[v] = s.Value(cnf.Var(v))
			}
			s.status = StatusSAT
			return s.finished()
		}
	}
}

func (s *Solver) finished() Result {
	r := Result{Status: s.status, Reason: ReasonSolved}
	if s.status == StatusSAT {
		r.Model = s.Model()
	}
	return r
}

// restartThreshold returns the next restart interval under the configured
// schedule; 0 means "never restart".
func (s *Solver) restartThreshold() int {
	if s.opts.RestartBase == 0 {
		return 0
	}
	switch s.opts.RestartPolicy {
	case RestartNone:
		return 0
	case RestartFixed:
		return s.opts.RestartBase
	case RestartGeometric:
		// Cap the shift so long runs cannot overflow the interval.
		shift := s.restartCount
		if shift > 20 {
			shift = 20
		}
		return s.opts.RestartBase << shift
	default:
		return s.opts.RestartBase * luby(s.restartCount+1)
	}
}

// luby computes the Luby restart series 1,1,2,1,1,2,4,...
func luby(i int) int {
	for k := 1; ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// Stats is a snapshot of the engine's counters, and the engine's only
// report: clients turn it into heartbeat deltas (StatsDelta), the master
// aggregates those into /metrics, and the search never calls out to count.
type Stats struct {
	Decisions    int64
	Conflicts    int64
	Propagations int64
	Implications int64
	Learned      int64
	Deleted      int64
	Restarts     int64
	Imported     int64
	Exported     int64
	Simplified   int64
	Splits       int64
	// ReclaimedBytes counts bytes the arena's compacting GC has returned
	// to the allocator (deleted clauses + stripped literals).
	ReclaimedBytes int64
	// Import-usefulness telemetry: how much work peer-origin clauses
	// actually do once merged. ImportedImplications counts BCP implications
	// whose reason clause is imported; ImportedResolutions counts
	// resolutions on imported clauses during conflict analysis;
	// ImportedUseful counts distinct imported clauses used at least once
	// (first-use, at most once per clause). Together with Imported these
	// yield the cluster's import-usefulness ratio.
	ImportedImplications int64
	ImportedResolutions  int64
	ImportedUseful       int64
}

// Stats returns a snapshot of the counters.
func (s *Solver) Stats() Stats { return s.stats }

// StatsDelta returns cur - prev field-by-field; callers use it to turn
// two Stats snapshots into heartbeat deltas.
func StatsDelta(cur, prev Stats) Stats {
	return Stats{
		Decisions:      cur.Decisions - prev.Decisions,
		Conflicts:      cur.Conflicts - prev.Conflicts,
		Propagations:   cur.Propagations - prev.Propagations,
		Implications:   cur.Implications - prev.Implications,
		Learned:        cur.Learned - prev.Learned,
		Deleted:        cur.Deleted - prev.Deleted,
		Restarts:       cur.Restarts - prev.Restarts,
		Imported:       cur.Imported - prev.Imported,
		Exported:       cur.Exported - prev.Exported,
		Simplified:     cur.Simplified - prev.Simplified,
		Splits:         cur.Splits - prev.Splits,
		ReclaimedBytes: cur.ReclaimedBytes - prev.ReclaimedBytes,

		ImportedImplications: cur.ImportedImplications - prev.ImportedImplications,
		ImportedResolutions:  cur.ImportedResolutions - prev.ImportedResolutions,
		ImportedUseful:       cur.ImportedUseful - prev.ImportedUseful,
	}
}

// Path returns the solver's guiding path, the cube of its subproblem (see
// Subproblem.Cube): refuting the subproblem closes 2^-len(Path()) of the
// root's search space. The caller must not modify it.
func (s *Solver) Path() []cnf.Lit { return s.path }
