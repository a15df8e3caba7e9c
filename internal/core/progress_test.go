package core

import (
	"testing"

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
	if eta := p.ETASeconds(); eta != 0 {
		t.Fatalf("ETA at full coverage = %v, want 0", eta)
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

func TestProgressTrackerETA(t *testing.T) {
	var p ProgressTracker
	if p.ETASeconds() != -1 {
		t.Fatal("ETA should be unknown before any closure interval")
	}
	p.CloseSubproblem(2, 10) // 1/4 in 10 s -> rate 0.025/s
	if r := p.Rate(); r <= 0 {
		t.Fatalf("rate = %v after first interval", r)
	}
	eta := p.ETASeconds()
	if eta <= 0 {
		t.Fatalf("ETA = %v, want positive projection", eta)
	}
	// 3/4 remaining at 0.025/s = 30 s.
	if eta < 29.9 || eta > 30.1 {
		t.Fatalf("ETA = %v, want ~30", eta)
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

// TestDESProgressMonotoneReachesFull runs a Table-1 UNSAT instance
// (grid_10_20, the paper's symmetric slowdown row) through the DES and
// checks the acceptance property of the coverage estimate: the progress
// series is monotonically non-decreasing and ends at exactly 1.0 — all
// 2^62 fixed-point units — when the verdict is UNSAT.
func TestDESProgressMonotoneReachesFull(t *testing.T) {
	inst, ok := gen.ByName("grid_10_20")
	if !ok {
		t.Fatal("grid_10_20 missing from the Table-1 suite")
	}
	cfg := desConfig(inst.Build(), 10_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	cfg.Client.ShareMaxLen = 40
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", res.Outcome, res.Status)
	}
	if len(res.Progress) == 0 {
		t.Fatal("UNSAT run recorded no progress points")
	}
	if res.Splits == 0 {
		t.Fatal("run never split: progress series degenerate")
	}
	var prevUnits uint64
	var prevVSec float64
	for i, pt := range res.Progress {
		if pt.Units < prevUnits {
			t.Fatalf("point %d: units %d < previous %d (not monotone)", i, pt.Units, prevUnits)
		}
		if pt.VSec < prevVSec {
			t.Fatalf("point %d: vsec %v < previous %v", i, pt.VSec, prevVSec)
		}
		prevUnits, prevVSec = pt.Units, pt.VSec
	}
	last := res.Progress[len(res.Progress)-1]
	if last.Units != coverageFull {
		t.Fatalf("final units = %d, want exactly %d (2^62)", last.Units, coverageFull)
	}
	if res.CoverageUnits != coverageFull || res.Coverage != 1.0 {
		t.Fatalf("result coverage = %v (%d units), want exactly 1.0", res.Coverage, res.CoverageUnits)
	}
	if res.ClosedSubproblems != int64(len(res.Progress)) {
		t.Fatalf("closed=%d but %d progress points", res.ClosedSubproblems, len(res.Progress))
	}
	// The aggregated cluster counters must reflect real work and real
	// sharing on this conflict-heavy instance.
	if res.Agg.Conflicts == 0 || res.Agg.Implications == 0 {
		t.Fatalf("empty cluster aggregate: %+v", res.Agg)
	}
	if res.Agg.Imported == 0 {
		t.Fatal("no imported clauses recorded despite sharing")
	}
	eff := res.Efficacy()
	if eff.UsefulRatio < 0 || eff.UsefulRatio > 1 {
		t.Fatalf("useful ratio %v out of range", eff.UsefulRatio)
	}
}

// TestDESProgressDeterministic re-runs the same config and requires the
// entire progress series — timestamps, depths, and unit totals — to
// reproduce exactly, making the curves benchmarkable.
func TestDESProgressDeterministic(t *testing.T) {
	build := func() SimResult {
		cfg := desConfig(gen.Pigeonhole(8), 10_000)
		cfg.Client.MinRunTime = vsecDuration(5)
		return RunDistributed(cfg)
	}
	a, b := build(), build()
	if len(a.Progress) != len(b.Progress) {
		t.Fatalf("series lengths differ: %d vs %d", len(a.Progress), len(b.Progress))
	}
	for i := range a.Progress {
		if a.Progress[i] != b.Progress[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.Progress[i], b.Progress[i])
		}
	}
	if a.Agg != b.Agg {
		t.Fatalf("cluster aggregates differ:\n%+v\n%+v", a.Agg, b.Agg)
	}
}

// TestDESProgressFlightEventsMatchSeries cross-checks the flight log: every
// progress point corresponds to one FEvProgress event carrying the same
// running total, so ReplayVerify covers the coverage estimator too.
func TestDESProgressFlightEventsMatchSeries(t *testing.T) {
	fl := trace.NewFlight(nil)
	cfg := desConfig(gen.Pigeonhole(8), 10_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v", res.Status)
	}
	var progEvents []trace.FEvent
	for _, ev := range fl.Events() {
		if ev.Kind == trace.FEvProgress {
			progEvents = append(progEvents, ev)
		}
	}
	if len(progEvents) != len(res.Progress) {
		t.Fatalf("%d progress events vs %d series points", len(progEvents), len(res.Progress))
	}
	for i, ev := range progEvents {
		if uint64(ev.N) != res.Progress[i].Units {
			t.Fatalf("event %d carries %d units, series says %d", i, ev.N, res.Progress[i].Units)
		}
	}
	if err := trace.Validate(fl.Events()); err != nil {
		t.Fatal(err)
	}
}
