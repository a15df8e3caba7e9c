package core

import (
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

func TestCoverageUnits(t *testing.T) {
	cases := []struct {
		depth int
		want  uint64
	}{
		{0, coverageFull},
		{1, coverageFull / 2},
		{2, coverageFull / 4},
		{-3, coverageFull}, // clamped to the root
		{61, 2},
		{62, 1}, // saturates to one unit
		{200, 1},
	}
	for _, c := range cases {
		if got := coverageUnits(c.depth); got != c.want {
			t.Errorf("coverageUnits(%d) = %d, want %d", c.depth, got, c.want)
		}
	}
	// The two halves of a depth-d split must reproduce the parent's weight
	// exactly — the invariant that makes the sum reach 1.0 bit for bit.
	for d := 0; d < coverageBits-1; d++ {
		if 2*coverageUnits(d+1) != coverageUnits(d) {
			t.Fatalf("depth-%d halves do not sum to the parent weight", d)
		}
	}
}

func TestProgressTrackerReachesExactlyFull(t *testing.T) {
	var p ProgressTracker
	// Refute an unbalanced split tree: 1/2 + 1/4 + 1/8 + 1/8 = 1.
	for i, d := range []int{1, 2, 3, 3} {
		p.CloseSubproblem(d, float64(i+1))
	}
	if p.Units() != coverageFull {
		t.Fatalf("units = %d, want %d", p.Units(), coverageFull)
	}
	if p.Fraction() != 1.0 {
		t.Fatalf("fraction = %v, want exactly 1.0", p.Fraction())
	}
	if p.Closed() != 4 || p.MaxDepth() != 3 {
		t.Fatalf("closed=%d maxDepth=%d", p.Closed(), p.MaxDepth())
	}
}

// TestCoverageKWaySplitBitExact pins the strategy depth contract at the
// estimator: a depth-d subproblem forked k ways yields 2^k cofactors at
// depth d+k, and closing all of them must reproduce the parent's
// fixed-point weight bit for bit — no rounding drift, ever.
func TestCoverageKWaySplitBitExact(t *testing.T) {
	for _, c := range []struct{ d, k int }{
		{0, 1}, {0, 2}, {3, 2}, {7, 3}, {20, 2}, {40, 4},
	} {
		var p ProgressTracker
		for i := 0; i < 1<<c.k; i++ {
			p.CloseSubproblem(c.d+c.k, float64(i))
		}
		if got, want := p.Units(), coverageUnits(c.d); got != want {
			t.Errorf("d=%d k=%d: closed 2^%d children at depth %d, units %d != parent's %d",
				c.d, c.k, c.k, c.d+c.k, got, want)
		}
	}
	// Mixed arity: a depth-0 space split 2-way, one half split 4-way,
	// still sums to exactly 1.0.
	var p ProgressTracker
	p.CloseSubproblem(1, 1)
	for i := 0; i < 4; i++ {
		p.CloseSubproblem(3, float64(2+i))
	}
	if p.Units() != coverageFull {
		t.Fatalf("mixed-arity closures sum to %d, want exactly %d", p.Units(), coverageFull)
	}
}

func TestProgressTrackerCapsAtFull(t *testing.T) {
	var p ProgressTracker
	p.CloseSubproblem(0, 1) // the whole space
	p.CloseSubproblem(5, 2) // a duplicate/saturated contribution
	if p.Units() != coverageFull {
		t.Fatalf("capped units = %d, want %d", p.Units(), coverageFull)
	}
}

func TestProgressTrackerRate(t *testing.T) {
	var p ProgressTracker
	if p.Rate() != 0 {
		t.Fatal("rate should be unknown before any closure interval")
	}
	p.CloseSubproblem(2, 10) // 1/4 in 10 s -> rate 0.025/s
	if r := p.Rate(); r != 0.025 {
		t.Fatalf("rate = %v after first interval, want 0.025", r)
	}
}

// TestCoverageRateStartsWithTheJob: a job's first coverage interval runs
// from its start, not from the master's clock origin. A job submitted at
// t = 0 that first gets a client at t = 100 and refutes half its space at
// t = 110 covers 0.5 in 10 s, not in 110 s.
func TestCoverageRateStartsWithTheJob(t *testing.T) {
	h := newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)})
	h.now = 0
	m := h.m
	id := h.submit(twoVars(), 1)
	h.now = 100
	c := m.clients[m.connect()]
	m.handleRegister(c, comm.Register{Addr: "a", FreeMemBytes: 64 << 20, SpeedHint: 1})
	j := m.jobs[id]
	if j.State != JobRunning || j.StartedAt != 100 || c.state != busy {
		t.Fatalf("job %v started at %v, client %v; want running from 100", j.State, j.StartedAt, c.state)
	}
	h.now = 110
	m.handleSplitDone(c, comm.SplitDone{OK: true})
	c.cube = []cnf.Lit{cnf.PosLit(0)}
	j.subBacklog = append(j.subBacklog, backlogSub{job: id,
		sub: &solver.Subproblem{NumVars: 2, Cube: []cnf.Lit{cnf.NegLit(0)}}})
	m.handleSolved(c, comm.Solved{Status: solver.StatusUNSAT, Job: id})
	if st := m.state(); st.RatePerSec != 0.05 || st.ETASeconds != 10 {
		t.Fatalf("rate %v/s, ETA %v s; want 0.05/s and 10 s", st.RatePerSec, st.ETASeconds)
	}
}

func TestMarkStragglers(t *testing.T) {
	clients := []ClientState{
		{ID: 1, Busy: true, ConflictsPerSec: 1000},
		{ID: 2, Busy: true, ConflictsPerSec: 900},
		{ID: 3, Busy: true, ConflictsPerSec: 100}, // < 0.25 × median (900)
		{ID: 4, Busy: false, ConflictsPerSec: 0},  // idle: never a straggler
	}
	markStragglers(clients)
	if clients[0].Straggler || clients[1].Straggler {
		t.Fatal("healthy clients flagged as stragglers")
	}
	if !clients[2].Straggler {
		t.Fatal("slow busy client not flagged")
	}
	if clients[3].Straggler {
		t.Fatal("idle client flagged")
	}
	if clients[0].Utilization != 1.0 {
		t.Fatalf("fastest client utilization = %v, want 1", clients[0].Utilization)
	}
	if u := clients[2].Utilization; u < 0.09 || u > 0.11 {
		t.Fatalf("straggler utilization = %v, want 0.1", u)
	}

	// Two busy clients: no straggler call, however slow the second one is.
	two := []ClientState{
		{ID: 1, Busy: true, ConflictsPerSec: 1000},
		{ID: 2, Busy: true, ConflictsPerSec: 1},
	}
	markStragglers(two)
	if two[1].Straggler {
		t.Fatal("straggler flagged with only two busy clients")
	}
}

func TestEfficacyOf(t *testing.T) {
	e := efficacyOf(comm.SolverDeltas{Imported: 200, ImportedUseful: 50,
		ImportedImplications: 1000, ImportedResolutions: 100, Implications: 10000})
	if e.UsefulRatio != 0.25 {
		t.Fatalf("useful ratio = %v, want 0.25", e.UsefulRatio)
	}
	if e.ImplicationShare != 0.1 {
		t.Fatalf("implication share = %v, want 0.1", e.ImplicationShare)
	}
	zero := efficacyOf(comm.SolverDeltas{})
	if zero.UsefulRatio != 0 || zero.ImplicationShare != 0 {
		t.Fatal("zero imports must yield zero ratios, not NaN")
	}
}

// progressRun runs cfg under a flight recorder and returns the course of
// its coverage estimate: the FEvSubUNSAT events, one per refuted
// subproblem in closure order, each carrying the running total in units (N)
// and the refuted cube, whose length is the refuted depth.
func progressRun(cfg RunnerConfig) (SimResult, []trace.FEvent) {
	fl := trace.NewFlight(nil)
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	var evs []trace.FEvent
	for _, ev := range fl.Events() {
		if ev.Kind == trace.FEvSubUNSAT {
			evs = append(evs, ev)
		}
	}
	return res, evs
}

// TestDESProgressMonotoneReachesFull runs a Table-1 UNSAT instance
// (grid_10_20, the paper's symmetric slowdown row) through the DES and
// checks the acceptance property of the coverage estimate: its course is
// monotonically non-decreasing and ends at exactly 1.0 — all 2^62
// fixed-point units — when the verdict is UNSAT.
func TestDESProgressMonotoneReachesFull(t *testing.T) {
	inst, ok := gen.ByName("grid_10_20")
	if !ok {
		t.Fatal("grid_10_20 missing from the Table-1 suite")
	}
	cfg := desConfig(inst.Build(), 10_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	cfg.Client.ShareMaxLen = 40
	res, evs := progressRun(cfg)
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", res.Outcome, res.Status)
	}
	if len(evs) == 0 {
		t.Fatal("UNSAT run recorded no progress events")
	}
	if res.State.Splits == 0 {
		t.Fatal("run never split: progress course degenerate")
	}
	var prevUnits int64
	var prevVSec float64
	for i, ev := range evs {
		if ev.N < prevUnits {
			t.Fatalf("event %d: units %d < previous %d (not monotone)", i, ev.N, prevUnits)
		}
		if ev.VSec < prevVSec {
			t.Fatalf("event %d: vsec %v < previous %v", i, ev.VSec, prevVSec)
		}
		if depth := len(strings.Fields(ev.Cube)); ev.N-prevUnits != int64(coverageUnits(depth)) {
			t.Fatalf("event %d: units rose by %d, not the 2^-%d its cube %q retires", i, ev.N-prevUnits, depth, ev.Cube)
		}
		prevUnits, prevVSec = ev.N, ev.VSec
	}
	if last := evs[len(evs)-1]; uint64(last.N) != coverageFull {
		t.Fatalf("final units = %d, want exactly %d (2^62)", last.N, coverageFull)
	}
	if res.State.Jobs[0].Units != coverageFull || res.State.Jobs[0].Coverage != 1.0 {
		t.Fatalf("result coverage = %v (%d units), want exactly 1.0", res.State.Jobs[0].Coverage, res.State.Jobs[0].Units)
	}
	if res.State.ClosedSubproblems != int64(len(evs)) {
		t.Fatalf("closed=%d but %d progress events", res.State.ClosedSubproblems, len(evs))
	}
	// The aggregated cluster counters must reflect real work and real
	// sharing on this conflict-heavy instance.
	if res.Agg.Conflicts == 0 || res.Agg.Implications == 0 {
		t.Fatalf("empty cluster aggregate: %+v", res.Agg)
	}
	if res.Agg.Imported == 0 {
		t.Fatal("no imported clauses recorded despite sharing")
	}
	eff := efficacyOf(res.Agg)
	if eff.UsefulRatio < 0 || eff.UsefulRatio > 1 {
		t.Fatalf("useful ratio %v out of range", eff.UsefulRatio)
	}
}
