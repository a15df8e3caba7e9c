package core

import (
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

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

// dilemmaDESConfig is the DES config the dilemma acceptance tests share.
func dilemmaDESConfig(strategy string) RunnerConfig {
	cfg := desConfig(gen.Pigeonhole(8), 10_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	cfg.Client.ShareMaxLen = 40
	cfg.Client.SplitStrategy = strategy
	return cfg
}

// TestRunDistributedDilemmaUNSATCoverageExact runs the DES under each
// multi-way strategy on an UNSAT instance: the verdict must hold and the
// coverage estimate must finish at exactly 1.0 — all 2^62 units — proving
// the k-way depth bookkeeping partitions the space with no gap or overlap.
func TestRunDistributedDilemmaUNSATCoverageExact(t *testing.T) {
	for _, strategy := range []string{"dilemma", "dilemma-veto"} {
		t.Run(strategy, func(t *testing.T) {
			res := RunDistributed(dilemmaDESConfig(strategy))
			if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
				t.Fatalf("got %v/%v", res.Outcome, res.Status)
			}
			if res.Splits == 0 {
				t.Fatal("run never split")
			}
			if res.CoverageUnits != coverageFull || res.Coverage != 1.0 {
				t.Fatalf("coverage = %v (%d units), want exactly 1.0 (%d units)",
					res.Coverage, res.CoverageUnits, coverageFull)
			}
		})
	}
}

// TestRunDistributedDilemmaAgainstBrute sweeps random instances through
// the dilemma DES and checks the verdict against brute force.
func TestRunDistributedDilemmaAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		f := gen.RandomKSAT(20, 85, 3, seed)
		want, _ := brute.Solve(f, 0)
		cfg := desConfig(f, 10_000)
		cfg.Client.MinRunTime = vsecDuration(5)
		cfg.Client.SplitStrategy = "dilemma"
		res := RunDistributed(cfg)
		if res.Outcome != OutcomeSolved {
			t.Fatalf("seed %d: %v", seed, res.Outcome)
		}
		if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: DES says %v, brute %v", seed, res.Status, want)
		}
		if res.Status == solver.StatusSAT {
			if err := f.Verify(res.Model); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestRunDistributedDilemmaReplayVerify records a dilemma DES run's flight
// log and replays the same configuration: the multi-way issue/accept/
// backlog event stream must reproduce exactly.
func TestRunDistributedDilemmaReplayVerify(t *testing.T) {
	record := trace.NewFlight(nil)
	cfg := dilemmaDESConfig("dilemma")
	cfg.Master.Flight = record
	res := RunDistributed(cfg)
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v", res.Status)
	}
	recorded := record.Events()
	counts := trace.CountByKind(recorded)
	if counts[trace.FEvSplitAccept] == 0 {
		t.Fatal("dilemma run accepted no splits")
	}
	if err := trace.ReplayVerify(recorded, func(f *trace.Flight) error {
		rerun := dilemmaDESConfig("dilemma")
		rerun.Master.Flight = f
		RunDistributed(rerun)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDistributedDilemmaLineage builds the lineage tree from a dilemma
// DES flight log and checks the k-ary accounting: leaves = accepts+1, and
// at least one fork is wider than binary when the run fanned out.
func TestRunDistributedDilemmaLineage(t *testing.T) {
	fl := trace.NewFlight(nil)
	cfg := dilemmaDESConfig("dilemma")
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v", res.Status)
	}
	events := fl.Events()
	if err := trace.Validate(events); err != nil {
		t.Fatal(err)
	}
	tree := trace.BuildLineage(events)
	accepts := trace.CountByKind(events)[trace.FEvSplitAccept]
	if got := int64(len(tree.Leaves())); got != accepts+1 {
		t.Fatalf("leaves = %d, want accepts+1 = %d", got, accepts+1)
	}
	m := tree.Metrics()
	if m.MaxFanout < 2 {
		t.Fatalf("max fanout = %d on a splitting run", m.MaxFanout)
	}
	if m.UnsatLeaves == 0 {
		t.Fatal("UNSAT run recorded no refuted leaves")
	}
	if m.KillDepthMax < 1 || m.BalanceMean <= 0 || m.BalanceMean > 1 {
		t.Fatalf("degenerate metrics: %+v", m)
	}
}

// TestRunDistributedStrategyDeterministic re-runs each strategy and
// requires identical aggregates — multi-way fan-out must not introduce
// scheduling nondeterminism.
func TestRunDistributedStrategyDeterministic(t *testing.T) {
	for _, strategy := range []string{"dilemma", "dilemma-veto"} {
		a := RunDistributed(dilemmaDESConfig(strategy))
		b := RunDistributed(dilemmaDESConfig(strategy))
		if a.VSec != b.VSec || a.Splits != b.Splits || a.MaxClients != b.MaxClients ||
			a.Shared != b.Shared || a.TotalProps != b.TotalProps ||
			a.CoverageUnits != b.CoverageUnits {
			t.Fatalf("%s: nondeterministic DES: %+v vs %+v", strategy, a, b)
		}
	}
}
