package core

import (
	"bytes"
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
)

// rootSub wraps a formula as the whole-problem subproblem (no guiding
// path), the shape the initial assignment hands a portfolio client.
func rootSub(f *cnf.Formula) *solver.Subproblem {
	return &solver.Subproblem{NumVars: f.NumVars}
}

// These tests drive the live portfolio engine — K concurrent diversified
// workers over one subproblem, racing through the lock-free pool. They are
// the -race stress surface for the whole intra-host exchange: CI runs the
// package under the race detector.

func TestPortfolioSolvesUNSAT(t *testing.T) {
	f := gen.Pigeonhole(8)
	p, err := newPortfolio(f, rootSub(f), solver.DefaultOptions(), 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Threads() != 4 {
		t.Fatalf("Threads() = %d", p.Threads())
	}
	res := p.Solve(solver.Limits{})
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v", res.Status)
	}
	if w := p.Winner(); w < 0 || w >= 4 {
		t.Fatalf("winner %d out of range", w)
	}
	reports := p.WorkerReports()
	if len(reports) != 4 {
		t.Fatalf("%d worker reports", len(reports))
	}
	for i, r := range reports {
		if r.Worker != i || r.Profile == "" {
			t.Fatalf("report %d malformed: %+v", i, r)
		}
	}
}

func TestPortfolioAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		f := gen.RandomKSAT(18, 76, 3, seed)
		want, _ := brute.Solve(f, 0)
		p, err := newPortfolio(f, rootSub(f), solver.DefaultOptions(), 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Solve(solver.Limits{})
		if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: portfolio says %v, brute %v", seed, res.Status, want)
		}
		if res.Status == solver.StatusSAT {
			if err := f.Verify(res.Model); err != nil {
				t.Fatalf("seed %d: winning model invalid: %v", seed, err)
			}
		}
	}
}

// TestPortfolioSlicedRace drives the portfolio the way the live client
// does — bounded slices with cluster-share drains and imports between them
// — so the race detector sees the full concurrent pool traffic pattern
// (publish during Solve, drain/import at the slice boundary).
func TestPortfolioSlicedRace(t *testing.T) {
	f := gen.Pigeonhole(9)
	p, err := newPortfolio(f, rootSub(f), solver.DefaultOptions(), 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	var drained int
	for i := 0; i < 200; i++ {
		res := p.Solve(solver.Limits{MaxPropagations: 20_000})
		p.DrainClusterShares(func(c cnf.Clause, _ int) { drained++ })
		_ = p.Stats()
		_ = p.MemoryBytes()
		_ = p.WorkerReports()
		if res.Status != solver.StatusUnknown {
			if res.Status != solver.StatusUNSAT {
				t.Fatalf("got %v", res.Status)
			}
			st := p.PoolStats()
			if st.Published == 0 || st.Delivered == 0 {
				t.Fatalf("no pool traffic in a sliced run: %+v", st)
			}
			return
		}
	}
	t.Fatal("portfolio did not finish pigeonhole(9) in 200 slices")
}

// TestPortfolioCheckpointRoundTrip interrupts a K=3 portfolio mid-run,
// checkpoints the pathfinder (the only worker checkpoint/migration ever
// serve), round-trips it through Save/Load, and restores a fresh portfolio
// from the resulting subproblem: the verdict must match the oracle.
func TestPortfolioCheckpointRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		f := gen.RandomKSAT(16, 68, 3, seed)
		want, _ := brute.Solve(f, 0)
		p, err := newPortfolio(f, rootSub(f), solver.DefaultOptions(), 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Solve(solver.Limits{MaxConflicts: 20})
		if res.Status != solver.StatusUnknown {
			continue // solved before the checkpoint; nothing to restore
		}
		p.StopAll()
		cp := p.Pathfinder().Checkpoint(solver.HeavyCheckpoint, 1000)
		var buf bytes.Buffer
		if err := cp.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := solver.LoadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sub := &solver.Subproblem{NumVars: got.NumVars, Assumptions: got.Level0,
			Learnts: got.Learnts, Depth: got.Depth}
		p2, err := newPortfolio(f, sub, solver.DefaultOptions(), 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		r2 := p2.Solve(solver.Limits{})
		if (r2.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: restored portfolio says %v, oracle %v", seed, r2.Status, want)
		}
		if r2.Status == solver.StatusSAT {
			if err := f.Verify(r2.Model); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestJobPortfolioSolve runs the full live job — master plus portfolio
// clients over the in-process transport — at Threads=3.
func TestJobPortfolioSolve(t *testing.T) {
	f := gen.Pigeonhole(8)
	res, err := Solve(f, JobConfig{
		Clients: 3,
		Threads: 3,
		Client:  ClientConfig{ShareMaxLen: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v", res.Status)
	}
}
