package core

import (
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// These tests pin the DES half of the hybrid splits×portfolio design:
// Threads>1 clients must keep every determinism and soundness guarantee of
// the single-solver runner — identical re-runs, exact coverage, replayable
// flight logs — while actually exchanging clauses through the in-host pool.

func portfolioDESConfig(f *cnf.Formula, threads int) RunnerConfig {
	cfg := desConfig(f, 100_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	cfg.Client.Threads = threads
	return cfg
}

func TestRunDistributedPortfolioUNSATCoverageExact(t *testing.T) {
	res := RunDistributed(portfolioDESConfig(gen.Pigeonhole(8), 4))
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", res.Outcome, res.Status)
	}
	if res.Threads != 4 {
		t.Fatalf("Threads = %d, want 4", res.Threads)
	}
	if res.State.Jobs[0].Units != coverageFull {
		t.Fatalf("coverage %d units, want exactly %d", res.State.Jobs[0].Units, coverageFull)
	}
	if res.Pool.Published == 0 {
		t.Fatal("portfolio run published nothing to the in-host pool")
	}
	if res.Pool.Delivered == 0 {
		t.Fatal("in-host pool delivered nothing despite publishes")
	}
}

func TestRunDistributedPortfolioAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		f := gen.RandomKSAT(20, 85, 3, seed)
		want, _ := brute.Solve(f, 0)
		res := RunDistributed(portfolioDESConfig(f, 3))
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

// TestRunDistributedPortfolioDeterministic re-runs the same portfolio
// configuration and requires identical aggregates, down to the pool
// exchange counters: the DES drives the lock-free pool single-threaded, so
// K-worker interleaving must be exactly reproducible (run under -count=2
// in CI for a third sample).
func TestRunDistributedPortfolioDeterministic(t *testing.T) {
	a := RunDistributed(portfolioDESConfig(gen.Pigeonhole(8), 4))
	b := RunDistributed(portfolioDESConfig(gen.Pigeonhole(8), 4))
	if a.Status != b.Status || a.VSec != b.VSec || a.State.Splits != b.State.Splits ||
		a.State.Shared != b.State.Shared || a.TotalProps != b.TotalProps ||
		a.State.Jobs[0].Units != b.State.Jobs[0].Units ||
		a.Pool != b.Pool {
		t.Fatalf("nondeterministic portfolio DES:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRunDistributedPortfolioReplayVerify records a Threads=4 run's flight
// log and replays the configuration: the event stream — including worker
// attributions — must reproduce exactly.
func TestRunDistributedPortfolioReplayVerify(t *testing.T) {
	record := trace.NewFlight(nil)
	cfg := portfolioDESConfig(gen.Pigeonhole(8), 4)
	cfg.Master.Flight = record
	res := RunDistributed(cfg)
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v", res.Status)
	}
	if err := trace.ReplayVerify(record.Events(), func(f *trace.Flight) error {
		rerun := portfolioDESConfig(gen.Pigeonhole(8), 4)
		rerun.Master.Flight = f
		RunDistributed(rerun)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDistributedThreadsOneBitIdentical pins the behavior-preservation
// contract: Threads=1 must reproduce the default (Threads=0) runner's
// flight log event for event — same verdict, counts, and Lamport horizon.
func TestRunDistributedThreadsOneBitIdentical(t *testing.T) {
	run := func(threads int) ([]trace.FEvent, SimResult) {
		fl := trace.NewFlight(nil)
		cfg := desConfig(gen.Pigeonhole(8), 100_000)
		cfg.Client.MinRunTime = vsecDuration(5)
		cfg.Client.Threads = threads
		cfg.Master.Flight = fl
		res := RunDistributed(cfg)
		return fl.Events(), res
	}
	evs0, res0 := run(0)
	evs1, res1 := run(1)
	if err := trace.CompareLogs(evs0, evs1); err != nil {
		t.Fatal(err)
	}
	if res0.VSec != res1.VSec || res0.TotalProps != res1.TotalProps ||
		res0.State.Splits != res1.State.Splits || res0.State.Shared != res1.State.Shared {
		t.Fatalf("-threads=1 diverged from single-solver runner:\n%+v\nvs\n%+v", res0, res1)
	}
	if res1.Pool.Published != 0 {
		t.Fatalf("Threads=1 used the in-host pool: %d publishes", res1.Pool.Published)
	}
}

// TestRunDistributedPortfolioMigration moves a portfolio client's
// subproblem mid-run: the donor's workers are all stopped, and the
// recipient rebuilds a full-width portfolio from the cube — with the
// verdict intact.
func TestRunDistributedPortfolioMigration(t *testing.T) {
	res := RunDistributed(migrationDESConfig(2))
	if res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", res.Outcome)
	}
	if res.State.Migrations == 0 {
		t.Error("no migrations despite dominant idle batch nodes")
	}
	if res.Status != solver.StatusUNSAT || res.State.Jobs[0].Units != coverageFull {
		t.Fatalf("verdict %v, coverage %d units", res.Status, res.State.Jobs[0].Units)
	}
}

// TestRunDistributedPortfolioCrashRecovery kills a portfolio client
// mid-run: its pathfinder's light checkpoint must recover on an idle host
// (with a fresh portfolio) and the UNSAT verdict must still close exactly.
func TestRunDistributedPortfolioCrashRecovery(t *testing.T) {
	cfg := portfolioDESConfig(gen.Pigeonhole(8), 3)
	cfg.Failures = []FailurePlan{{HostID: 0, AtVSec: 30}}
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", res.Outcome, res.Status)
	}
	if res.State.Jobs[0].Units != coverageFull {
		t.Fatalf("coverage %d units after crash recovery, want %d", res.State.Jobs[0].Units, coverageFull)
	}
}
