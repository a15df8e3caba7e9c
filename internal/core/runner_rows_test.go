package core

import (
	"fmt"
	"testing"

	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// The tests in this file each check one property of some rows of the table
// of simulated runs (TestParallelDESIsTheSerialDES). They read the runs the
// table made (runsOf) and simulate only what they replay; run without the
// table, they make the runs themselves.

// mustRepeat fails t unless row name ran more than once and every run is
// the first, and returns the runs.
func mustRepeat(t *testing.T, name string) []simRun {
	t.Helper()
	runs := runsOf(t, name)
	if len(runs) < 2 {
		t.Fatalf("row %s runs once; there is no second run to compare", name)
	}
	for _, r := range runs[1:] {
		mustMatch(t, r, runs[0], fmt.Sprintf("%s at GOMAXPROCS=%d", name, r.procs))
	}
	return runs
}

// replay re-runs row name's config, as edit leaves it, against the flight
// log of the row's run: what `gridsat sim -replay` does.
func replay(t *testing.T, name string, edit func(*RunnerConfig)) error {
	t.Helper()
	r, row := runsOf(t, name)[0], rowNamed(t, name)
	return trace.ReplayVerify(r.fl.Events(), func(f *trace.Flight) error {
		cfg := row.mk()
		if edit != nil {
			edit(&cfg)
		}
		cfg.Master.Flight = f
		RunDistributed(cfg)
		return nil
	})
}

// mustSolveUNSAT fails t unless r proved its formula unsatisfiable.
func mustSolveUNSAT(t *testing.T, r simRun) {
	t.Helper()
	if r.res.Outcome != OutcomeSolved || r.res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", r.res.Outcome, r.res.Status)
	}
}

func TestRunDistributedUNSAT(t *testing.T) {
	r := runsOf(t, "plain")[0]
	mustSolveUNSAT(t, r)
	if r.res.MaxClients < 1 {
		t.Fatal("no clients went busy")
	}
}

func TestRunDistributedDeterministic(t *testing.T) { mustRepeat(t, "plain") }

func TestDESFlightLogValidatesAndMatchesResult(t *testing.T) {
	r := runsOf(t, "plain")[0]
	defer dumpFlight(t, r.fl)
	mustSolveUNSAT(t, r)
	checkSimRun(t, r)
	s := trace.Summarize(r.fl.Events())
	if s.Verdict != "UNSAT" || s.PerKind[trace.FEvVerdict] != 1 {
		t.Fatalf("flight verdict %q in %d verdict events, want UNSAT in one", s.Verdict, s.PerKind[trace.FEvVerdict])
	}
	if s.PerKind[trace.FEvSubUNSAT] == 0 {
		t.Fatal("UNSAT run recorded no sub-unsat events")
	}
}

// TestDESFlightLineageLeafCount: each split turns a leaf of the split tree
// into an inner node with two children, so the tree read off the log has
// splits+1 leaves and 2*splits+1 nodes.
func TestDESFlightLineageLeafCount(t *testing.T) {
	r := runsOf(t, "plain")[0]
	defer dumpFlight(t, r.fl)
	splits := r.res.State.Splits
	if splits == 0 {
		t.Fatal("run never split; pick a config that does")
	}
	tree := trace.BuildLineage(r.fl.Events())
	if got := len(tree.Leaves()); got != splits+1 {
		t.Errorf("lineage leaves = %d, want splits+1 = %d", got, splits+1)
	}
	if got := len(tree.Nodes()); got != 2*splits+1 {
		t.Errorf("lineage nodes = %d, want 2*splits+1 = %d", got, 2*splits+1)
	}
}

// TestDESFlightReplayVerify: the config replays clean, and a run under
// another config (one client, so no split) does not, or the verifier is
// vacuous.
func TestDESFlightReplayVerify(t *testing.T) {
	if err := replay(t, "plain", nil); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if replay(t, "plain", func(cfg *RunnerConfig) { cfg.MaxClients = 1 }) == nil {
		t.Fatal("replay verifier accepted a structurally different run")
	}
}

// TestDESProgressDeterministic: the coverage course, each refuted cube
// with its time and running total, is part of the flight log, so a run
// repeats it event for event, and the aggregates with it.
func TestDESProgressDeterministic(t *testing.T) {
	r := mustRepeat(t, "first-decision")[0]
	mustSolveUNSAT(t, r)
	if trace.Summarize(r.fl.Events()).PerKind[trace.FEvSubUNSAT] == 0 {
		t.Fatal("UNSAT run recorded no progress events")
	}
}

// TestRunDistributedFlightLogsRepeat is the determinism guard for the
// shared control plane on the single-job and K=4 portfolio paths; the
// multi-job and crash-recovery paths are the table's rows of those names.
func TestRunDistributedFlightLogsRepeat(t *testing.T) {
	for _, c := range []struct{ name, row string }{
		{"single-job", "first-decision"},
		{"portfolio-k4", "portfolio-k4"},
	} {
		t.Run(c.name, func(t *testing.T) { mustRepeat(t, c.row) })
	}
}

func TestRunDistributedBatchTerminateOnEnd(t *testing.T) {
	r := runsOf(t, "batch-terminate-on-end")[0]
	if r.res.Outcome != OutcomeTimeout {
		t.Fatalf("got %v", r.res.Outcome)
	}
	// The run must have ended near the batch end, far before the timeout.
	if r.res.VSec > 10_000 {
		t.Errorf("run did not terminate with the batch job (vsec=%v)", r.res.VSec)
	}
}

// TestRunDistributedBatchNodesJoin: the batch nodes join once their job
// leaves the queue and go busy beside the interactive hosts, past the cap
// on those.
func TestRunDistributedBatchNodesJoin(t *testing.T) {
	r := runsOf(t, "ph10-migration")[0]
	if r.res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", r.res.Outcome)
	}
	if r.res.BatchStartVSec <= 0 {
		t.Fatal("batch job never started")
	}
	if r.res.MaxClients <= r.cfg.MaxClients {
		t.Errorf("batch nodes never went busy: maxClients=%d", r.res.MaxClients)
	}
}

// TestRunDistributedTimeline checks the paper's described active-client
// curve, which checkSimRun holds every run to: starts at one client, peaks
// at MaxClients, collapses to zero.
func TestRunDistributedTimeline(t *testing.T) {
	r := runsOf(t, "first-decision")[0]
	if r.res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", r.res.Outcome)
	}
	if tl := r.res.Timeline; len(tl) < 3 {
		t.Fatalf("timeline too sparse: %v", tl)
	}
	checkSimRun(t, r)
}

func TestRunDistributedMigration(t *testing.T) {
	r := runsOf(t, "ph10-migration")[0]
	if r.res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", r.res.Outcome)
	}
	if r.res.State.Migrations == 0 {
		t.Error("no migrations despite dominant idle batch nodes")
	}
}

// TestLineageIsTheMastersCubes reads the split tree off the flight log of
// a run whose subproblems migrate to better hosts: a migration moves its
// cube to another client, never back to its own, and the tree stays the
// master's cube partition. The crash and served-job runs are the table's
// ph9-crashes-* and ph9-served rows.
func TestLineageIsTheMastersCubes(t *testing.T) {
	t.Run("migration/first-decision", func(t *testing.T) {
		r := runsOf(t, "ph10-migration")[0]
		defer dumpFlight(t, r.fl)
		mustSolveUNSAT(t, r)
		evs := r.fl.Events()
		if trace.Summarize(evs).PerKind[trace.FEvMigrate] == 0 {
			t.Fatal("no cube migrated; the run shows no churn")
		}
		for _, ev := range evs {
			if ev.Kind == trace.FEvMigrate && ev.Client == ev.Peer {
				t.Errorf("event %d moves cube %q from client %d back to itself", ev.ID, ev.Cube, ev.Client)
			}
		}
		checkRefutedTree(t, r.res.State.Jobs[0], evs, true)
	})
}

// TestRunDistributedDilemmaUNSATCoverageExact: under the dilemma strategy
// the coverage estimate finishes at exactly 1.0 — all 2^62 units — so the
// k-way depth bookkeeping partitions the space with no gap or overlap.
// The dilemma-veto run is the table's dilemma-veto-share40 row.
func TestRunDistributedDilemmaUNSATCoverageExact(t *testing.T) {
	t.Run("dilemma", func(t *testing.T) {
		r := runsOf(t, "dilemma-share40")[0]
		mustSolveUNSAT(t, r)
		if r.res.State.Splits == 0 {
			t.Fatal("run never split")
		}
		if j := r.res.State.Jobs[0]; j.Units != coverageFull || j.Coverage != 1.0 {
			t.Fatalf("coverage = %v (%d units), want exactly 1.0 (%d units)", j.Coverage, j.Units, coverageFull)
		}
	})
}

// TestRunDistributedDilemmaReplayVerify: the multi-way issue/accept/backlog
// event stream of a dilemma run replays exactly.
func TestRunDistributedDilemmaReplayVerify(t *testing.T) {
	r := runsOf(t, "dilemma-share40")[0]
	if trace.Summarize(r.fl.Events()).PerKind[trace.FEvSplitAccept] == 0 {
		t.Fatal("dilemma run accepted no splits")
	}
	if err := replay(t, "dilemma-share40", nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunDistributedDilemmaLineage checks the k-ary accounting of a dilemma
// run's split tree: leaves = accepts+1, and at least one fork fans out.
func TestRunDistributedDilemmaLineage(t *testing.T) {
	r := runsOf(t, "dilemma-share40")[0]
	mustSolveUNSAT(t, r)
	evs := r.fl.Events()
	tree := trace.BuildLineage(evs)
	accepts := trace.Summarize(evs).PerKind[trace.FEvSplitAccept]
	if got := int64(len(tree.Leaves())); got != accepts+1 {
		t.Fatalf("leaves = %d, want accepts+1 = %d", got, accepts+1)
	}
	if m := tree.Metrics(); m.MaxFanout < 2 || m.UnsatLeaves == 0 || m.KillDepthMax < 1 || m.BalanceMean <= 0 || m.BalanceMean > 1 {
		t.Fatalf("degenerate lineage metrics: %+v", m)
	}
}

// TestRunDistributedStrategyDeterministic: multi-way fan-out introduces no
// scheduling nondeterminism.
func TestRunDistributedStrategyDeterministic(t *testing.T) {
	mustRepeat(t, "dilemma-share40")
	mustRepeat(t, "dilemma-veto-share40")
}

func TestRunDistributedPortfolioUNSATCoverageExact(t *testing.T) {
	r := runsOf(t, "portfolio-k4")[0]
	mustSolveUNSAT(t, r)
	if r.res.Threads != 4 {
		t.Fatalf("Threads = %d, want 4", r.res.Threads)
	}
	if units := r.res.State.Jobs[0].Units; units != coverageFull {
		t.Fatalf("coverage %d units, want exactly %d", units, coverageFull)
	}
	if r.res.Pool.Published == 0 || r.res.Pool.Delivered == 0 {
		t.Fatalf("in-host pool published %d, delivered %d", r.res.Pool.Published, r.res.Pool.Delivered)
	}
}

// TestRunDistributedPortfolioDeterministic: the DES drives the lock-free
// pool single-threaded, so K-worker interleaving reproduces exactly, down
// to the pool's exchange counters.
func TestRunDistributedPortfolioDeterministic(t *testing.T) { mustRepeat(t, "portfolio-k4") }

// TestRunDistributedPortfolioReplayVerify: a Threads=4 run's event stream,
// worker attributions included, replays exactly.
func TestRunDistributedPortfolioReplayVerify(t *testing.T) {
	if err := replay(t, "portfolio-k4", nil); err != nil {
		t.Fatal(err)
	}
}
