package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

func desConfig(f *cnf.Formula, timeout float64) RunnerConfig {
	return RunnerConfig{
		Grid:        grid.TestbedGrADS(1),
		Master:      MasterConfig{Formula: f},
		Client:      ClientConfig{ShareMaxLen: 10},
		TimeoutVSec: timeout,
		Seed:        1,
	}
}

// TestDESWatchdogDefaultsArePinned holds the watchdog at its default
// thresholds to what it fires on the `sim -threads 1 bart15` run of
// cmd/gridsat's golden file: three rules over 34 clients on a 30-vsec
// monitor tick, the heartbeat gaps on the slow uiuc-b hosts among them (the
// nine alerts of commit 86242e5). The flight log carries every FEvAnomaly,
// so its hash pins each alert's instant and order; a change in how samples
// are retained cannot move one unseen. The hash also moves with the run
// itself, together with the bart15 golden row.
func TestDESWatchdogDefaultsArePinned(t *testing.T) {
	bart15, _ := gen.ByName("bart15")
	fl := trace.NewFlight(nil)
	res := RunDistributed(RunnerConfig{
		Grid:   grid.TestbedGrADS(1),
		Master: MasterConfig{Formula: bart15.Build(), Watchdog: &WatchdogConfig{}, Flight: fl},
		Client: ClientConfig{Threads: 1, ShareMaxLen: 10}, TimeoutVSec: 6000, Seed: 1,
	})
	line := func(a Alert) string {
		return fmt.Sprintf("%.1f %s %s: %s", a.TSec, a.Rule, a.Subject, a.Detail)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, fl.Events()); err != nil {
		t.Fatal(err)
	}
	const (
		wantAlerts = 9
		wantFirst  = "90.0 progress-stall cluster: coverage flat at 0.000000 for 60s with 12 clients busy"
		wantLast   = "210.0 heartbeat-gap client 32: client 32 busy but silent for 15.1s"
		wantSHA    = "1c36a47be0a1bf63ea6b2d2b6ca7817ab23bb0992dce751e8b392c5c89266c55"
	)
	if len(res.Alerts) != wantAlerts {
		t.Fatalf("fired %d alerts, want %d: %+v", len(res.Alerts), wantAlerts, res.Alerts)
	}
	if first, last := line(res.Alerts[0]), line(res.Alerts[wantAlerts-1]); first != wantFirst || last != wantLast {
		t.Errorf("alerts moved:\n got first %q\n     last  %q\nwant first %q\n     last  %q",
			first, last, wantFirst, wantLast)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); sum != wantSHA {
		t.Errorf("flight log sha256 %s, want %s", sum, wantSHA)
	}
}

func TestRunSequentialSolves(t *testing.T) {
	f := gen.Pigeonhole(8)
	res := RunSequential(desConfig(f, 10_000))
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", res.Outcome, res.Status)
	}
	if res.VSec <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if res.TotalProps == 0 {
		t.Fatal("no work recorded")
	}
}

func TestRunSequentialSAT(t *testing.T) {
	f := gen.RandomKSAT(50, 210, 3, 5)
	res := RunSequential(desConfig(f, 10_000))
	if res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", res.Outcome)
	}
	if res.Status == solver.StatusSAT {
		if err := f.Verify(res.Model); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunSequentialTimeout(t *testing.T) {
	f := gen.Pigeonhole(10)
	res := RunSequential(desConfig(f, 5)) // 5 virtual seconds: hopeless
	if res.Outcome != OutcomeTimeout {
		t.Fatalf("got %v after %v vsec", res.Outcome, res.VSec)
	}
}

func TestRunSequentialMemOut(t *testing.T) {
	cfg := desConfig(gen.Pigeonhole(10), 100_000)
	for _, h := range cfg.Grid.Hosts {
		h.MemBytes /= 200 // starve the baseline
	}
	res := RunSequential(cfg)
	if res.Outcome != OutcomeMemOut {
		t.Fatalf("got %v", res.Outcome)
	}
}

func TestRunDistributedUNSAT(t *testing.T) {
	f := gen.Pigeonhole(8)
	res := RunDistributed(desConfig(f, 10_000))
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", res.Outcome, res.Status)
	}
	if res.MaxClients < 1 {
		t.Fatal("no clients went busy")
	}
}

func TestRunDistributedSAT(t *testing.T) {
	f := gen.RandomKSAT(60, 255, 3, 9)
	res := RunDistributed(desConfig(f, 10_000))
	if res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", res.Outcome)
	}
	if res.Status == solver.StatusSAT {
		if err := f.Verify(res.Model); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunDistributedAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		f := gen.RandomKSAT(20, 85, 3, seed)
		want, _ := brute.Solve(f, 0)
		res := RunDistributed(desConfig(f, 10_000))
		if res.Outcome != OutcomeSolved {
			t.Fatalf("seed %d: %v", seed, res.Outcome)
		}
		if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: DES says %v, brute %v", seed, res.Status, want)
		}
	}
}

func TestRunDistributedDeterministic(t *testing.T) {
	f := gen.Pigeonhole(8)
	a := RunDistributed(desConfig(f, 10_000))
	b := RunDistributed(desConfig(f, 10_000))
	if a.VSec != b.VSec || a.State.Splits != b.State.Splits || a.MaxClients != b.MaxClients ||
		a.State.Shared != b.State.Shared || a.TotalProps != b.TotalProps {
		t.Fatalf("nondeterministic DES: %+v vs %+v", a, b)
	}
}

func TestRunDistributedSplitsOnHardInstance(t *testing.T) {
	f := gen.Pigeonhole(9)
	cfg := desConfig(f, 10_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	// Pigeonhole learns long clauses, and globally valid exports carry
	// their guiding-path literals; a wider share bound keeps them flowing.
	cfg.Client.ShareMaxLen = 40
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", res.Outcome)
	}
	if res.State.Splits == 0 || res.MaxClients < 2 {
		t.Fatalf("no parallelism: splits=%d maxClients=%d", res.State.Splits, res.MaxClients)
	}
	if res.MaxClients > 34 {
		t.Fatalf("max clients %d exceeds the 34-host testbed", res.MaxClients)
	}
	if res.State.Shared == 0 {
		t.Fatal("no clauses shared")
	}
}

func TestRunDistributedTimeout(t *testing.T) {
	f := gen.Pigeonhole(11)
	cfg := desConfig(f, 30)
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeTimeout {
		t.Fatalf("got %v at %v vsec", res.Outcome, res.VSec)
	}
	if res.VSec > 30 {
		t.Fatalf("vsec %v exceeds budget", res.VSec)
	}
}

func TestRunDistributedSpeedupOnHardUNSAT(t *testing.T) {
	// A hard unstructured instance must run faster in virtual time on the
	// grid than sequentially — the core Table-1 phenomenon.
	f := gen.RandomKSAT(190, 809, 3, 1)
	cfg := desConfig(f, 100_000)
	seq := RunSequential(cfg)
	dist := RunDistributed(cfg)
	if seq.Outcome != OutcomeSolved || dist.Outcome != OutcomeSolved {
		t.Fatalf("outcomes: seq=%v dist=%v", seq.Outcome, dist.Outcome)
	}
	if dist.VSec >= seq.VSec {
		t.Errorf("no speedup: seq=%.1f vsec dist=%.1f vsec", seq.VSec, dist.VSec)
	}
	t.Logf("seq=%.1f dist=%.1f speedup=%.2f maxClients=%d splits=%d shared=%d",
		seq.VSec, dist.VSec, seq.VSec/dist.VSec, dist.MaxClients, dist.State.Splits, dist.State.Shared)
}

func TestRunDistributedSlowdownOnSymmetricInstance(t *testing.T) {
	// Pigeonhole's symmetric search space defeats guiding-path splitting:
	// every half is nearly as hard as the whole, so the grid run wastes
	// work — the paper's grid_10_20 row (0.31x) shows exactly this.
	f := gen.Pigeonhole(9)
	cfg := desConfig(f, 100_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	seq := RunSequential(cfg)
	dist := RunDistributed(cfg)
	if seq.Outcome != OutcomeSolved || dist.Outcome != OutcomeSolved {
		t.Fatalf("outcomes: seq=%v dist=%v", seq.Outcome, dist.Outcome)
	}
	t.Logf("seq=%.1f dist=%.1f ratio=%.2f splits=%d", seq.VSec, dist.VSec, seq.VSec/dist.VSec, dist.State.Splits)
	if dist.State.Splits == 0 {
		t.Error("expected heavy splitting on the symmetric instance")
	}
}

func TestRunDistributedOverheadOnTinyInstance(t *testing.T) {
	// Tiny instances pay the client-launch overhead: the paper's glassy
	// row ran 7 s sequentially but 68 s on the grid.
	f := gen.RandomKSAT(60, 255, 3, 42)
	cfg := desConfig(f, 10_000)
	seq := RunSequential(cfg)
	dist := RunDistributed(cfg)
	if seq.Outcome != OutcomeSolved || dist.Outcome != OutcomeSolved {
		t.Fatalf("outcomes: seq=%v dist=%v", seq.Outcome, dist.Outcome)
	}
	if dist.VSec <= seq.VSec {
		t.Errorf("tiny instance showed speedup (%.2f vs %.2f); launch overhead missing",
			dist.VSec, seq.VSec)
	}
}

func TestRunDistributedBatchCanceledWhenSolvedEarly(t *testing.T) {
	g := grid.TestbedTable2(1)
	g.AddBlueHorizon(16)
	f := gen.Pigeonhole(8)
	cfg := desConfig(f, 100_000)
	cfg.Grid = g
	cfg.Batch = &BatchPlan{Nodes: 16, WalltimeVSec: 720, MeanQueueWaitVSec: 50_000}
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", res.Outcome)
	}
	if !res.BatchCanceled {
		t.Error("batch job not canceled despite early solve")
	}
	if res.BatchStartVSec != 0 {
		t.Error("batch reported a start despite cancellation")
	}
}

func TestRunDistributedBatchNodesJoin(t *testing.T) {
	g := grid.TestbedTable2(2)
	g.AddBlueHorizon(16)
	f := gen.Pigeonhole(10) // hard enough to outlast the short queue wait
	cfg := desConfig(f, 100_000)
	cfg.Grid = g
	cfg.Client.MinRunTime = vsecDuration(5)
	cfg.MaxClients = 4
	cfg.Batch = &BatchPlan{Nodes: 16, WalltimeVSec: 100_000, MeanQueueWaitVSec: 20}
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", res.Outcome)
	}
	if res.BatchStartVSec <= 0 {
		t.Fatal("batch job never started")
	}
	if res.MaxClients <= 4 {
		t.Errorf("batch nodes never went busy: maxClients=%d", res.MaxClients)
	}
}

func TestRunDistributedBatchTerminateOnEnd(t *testing.T) {
	g := grid.TestbedTable2(3)
	g.AddBlueHorizon(8)
	f := gen.Pigeonhole(12) // far beyond the budgets
	cfg := desConfig(f, 100_000)
	cfg.Grid = g
	cfg.Batch = &BatchPlan{Nodes: 8, WalltimeVSec: 30, MeanQueueWaitVSec: 20, TerminateOnEnd: true}
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeTimeout {
		t.Fatalf("got %v", res.Outcome)
	}
	// The run must have ended near the batch end, far before the timeout.
	if res.VSec > 10_000 {
		t.Errorf("run did not terminate with the batch job (vsec=%v)", res.VSec)
	}
}

func TestSimOutcomeString(t *testing.T) {
	if OutcomeSolved.String() != "solved" || OutcomeTimeout.String() != "TIME_OUT" ||
		OutcomeMemOut.String() != "MEM_OUT" || SimOutcome(9).String() != "unknown" {
		t.Error("SimOutcome strings wrong")
	}
}

// TestRunDistributedCrashRecovery kills busy clients mid-run; the master
// must recover their subproblems from light checkpoints and still reach
// the correct answer (the paper's §3.4 fault-tolerance extension).
func TestRunDistributedCrashRecovery(t *testing.T) {
	f := gen.Pigeonhole(9)
	cfg := desConfig(f, 100_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	cfg.Failures = []FailurePlan{
		{HostID: 0, AtVSec: 30},
		{HostID: 1, AtVSec: 45},
		{HostID: 5, AtVSec: 60},
	}
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("crash run: %v/%v", res.Outcome, res.Status)
	}
}

// TestRunDistributedCrashRecoveryPreservesAnswer cross-checks SAT/UNSAT
// against the oracle with failures injected.
func TestRunDistributedCrashRecoveryPreservesAnswer(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		f := gen.RandomKSAT(20, 85, 3, seed)
		want, _ := brute.Solve(f, 0)
		cfg := desConfig(f, 100_000)
		cfg.Client.MinRunTime = vsecDuration(2)
		cfg.Failures = []FailurePlan{{HostID: 0, AtVSec: 10}, {HostID: 2, AtVSec: 14}}
		res := RunDistributed(cfg)
		if res.Outcome != OutcomeSolved {
			t.Fatalf("seed %d: %v", seed, res.Outcome)
		}
		if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: got %v, brute %v", seed, res.Status, want)
		}
	}
}

// TestRunDistributedAllClientsCrash: losing every client (and every piece
// to orphan recovery with no survivors) must not deadlock — the run times
// out rather than hanging.
func TestRunDistributedIdleCrashIgnored(t *testing.T) {
	f := gen.RandomKSAT(30, 128, 3, 3)
	cfg := desConfig(f, 5_000)
	// Kill hosts that are almost certainly idle at t=1 (before launch).
	cfg.Failures = []FailurePlan{{HostID: 30, AtVSec: 1}, {HostID: 31, AtVSec: 1}}
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("idle crashes broke the run: %v", res.Outcome)
	}
}

// TestRunDistributedMigration: when far better resources join (dedicated
// batch nodes), the master migrates a long-running subproblem to them —
// the paper's §3.4 policy.
func TestRunDistributedMigration(t *testing.T) {
	g := grid.TestbedTable2(4)
	// Handicap the interactive hosts so the batch nodes dominate.
	for _, h := range g.Hosts {
		h.Speed = 0.3
		h.MemBytes = 64 << 20
		h.BaseAvail = 0.4
	}
	g.AddBlueHorizon(8)
	f := gen.Pigeonhole(10)
	cfg := desConfig(f, 100_000)
	cfg.Grid = g
	cfg.MaxClients = 2
	cfg.MigrationFactor = 2
	cfg.MonitorPeriodVSec = 10
	cfg.Batch = &BatchPlan{Nodes: 8, WalltimeVSec: 100_000, MeanQueueWaitVSec: 15}
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", res.Outcome)
	}
	if res.State.Migrations == 0 {
		t.Error("no migrations despite dominant idle batch nodes")
	}
}

// TestRunDistributedMigrationPreservesAnswer cross-checks against brute.
func TestRunDistributedMigrationPreservesAnswer(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		f := gen.RandomKSAT(20, 85, 3, seed)
		want, _ := brute.Solve(f, 0)
		cfg := desConfig(f, 100_000)
		cfg.MigrationFactor = 1.2
		cfg.MonitorPeriodVSec = 5
		cfg.Client.MinRunTime = vsecDuration(2)
		res := RunDistributed(cfg)
		if res.Outcome != OutcomeSolved {
			t.Fatalf("seed %d: %v", seed, res.Outcome)
		}
		if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: got %v, brute %v", seed, res.Status, want)
		}
	}
}

// TestRunDistributedTimeline checks the paper's described active-client
// curve: starts at one client, peaks at MaxClients, collapses to zero.
func TestRunDistributedTimeline(t *testing.T) {
	f := gen.Pigeonhole(9)
	cfg := desConfig(f, 100_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("got %v", res.Outcome)
	}
	tl := res.Timeline
	if len(tl) < 3 {
		t.Fatalf("timeline too sparse: %v", tl)
	}
	if tl[0].Busy != 1 {
		t.Errorf("run started with %d busy clients, want 1", tl[0].Busy)
	}
	if tl[len(tl)-1].Busy != 0 {
		t.Errorf("run ended with %d busy clients, want 0", tl[len(tl)-1].Busy)
	}
	peak := 0
	for i, p := range tl {
		if p.Busy > peak {
			peak = p.Busy
		}
		if i > 0 && p.VSec < tl[i-1].VSec {
			t.Fatal("timeline not time-ordered")
		}
	}
	if peak != res.MaxClients {
		t.Errorf("timeline peak %d != MaxClients %d", peak, res.MaxClients)
	}
}

// TestRunDistributedFlightLogsRepeat is the determinism guard for the
// shared control plane: the same config must produce the same flight log,
// event for event, on every path that walks the master's client, job and
// transfer tables — plain splitting, K=4 portfolios, multi-job scheduling
// and crash recovery. (CI also runs it at -count=2.)
func TestRunDistributedFlightLogsRepeat(t *testing.T) {
	configs := map[string]func() RunnerConfig{
		"single-job": func() RunnerConfig {
			cfg := desConfig(gen.Pigeonhole(8), 10_000)
			cfg.Client.MinRunTime = vsecDuration(5)
			return cfg
		},
		"portfolio-k4": func() RunnerConfig {
			cfg := desConfig(gen.Pigeonhole(8), 10_000)
			cfg.Client.MinRunTime = vsecDuration(5)
			cfg.Client.Threads = 4
			return cfg
		},
		"multi-job": func() RunnerConfig {
			cfg := desSchedConfig([]SimJob{
				{Name: "long", Formula: gen.Pigeonhole(8), Priority: 1, ArrivalVSec: 1},
				{Name: "late", Formula: gen.Pigeonhole(7), Priority: 1, ArrivalVSec: 25},
			}, 100_000)
			cfg.MaxClients = 2
			return cfg
		},
		"crash-recovery": func() RunnerConfig {
			cfg := desConfig(gen.Pigeonhole(8), 10_000)
			cfg.Client.MinRunTime = vsecDuration(5)
			cfg.Failures = []FailurePlan{{HostID: 0, AtVSec: 30}, {HostID: 1, AtVSec: 45}}
			return cfg
		},
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			run := func() (SimResult, []trace.FEvent) {
				fl := trace.NewFlight(nil)
				cfg := mk()
				cfg.Master.Flight = fl
				return RunDistributed(cfg), fl.Events()
			}
			r1, e1 := run()
			r2, e2 := run()
			if r1.Outcome != OutcomeSolved {
				t.Fatalf("outcome %v", r1.Outcome)
			}
			if name == "crash-recovery" && trace.CountByKind(e1)[trace.FEvRecover] == 0 {
				t.Fatal("config no longer recovers a crashed client's work; pick one that does")
			}
			if r1.VSec != r2.VSec || r1.TotalProps != r2.TotalProps || r1.Msgs != r2.Msgs || r1.Bytes != r2.Bytes {
				t.Fatalf("results diverge: %v/%d/%d/%d vs %v/%d/%d/%d", r1.VSec, r1.TotalProps, r1.Msgs, r1.Bytes,
					r2.VSec, r2.TotalProps, r2.Msgs, r2.Bytes)
			}
			if len(e1) != len(e2) {
				t.Fatalf("flight logs diverge: %d vs %d events", len(e1), len(e2))
			}
			for i := range e1 {
				if e1[i] != e2[i] {
					t.Fatalf("flight event %d diverges:\n%+v\n%+v", i, e1[i], e2[i])
				}
			}
		})
	}
}

// incidentalKinds are flight-event kinds whose presence depends on timing
// or on what the search happened to learn, not on which runtime ran: a
// split leg that lost a race, an arena shed, an import that got used.
var incidentalKinds = map[string]bool{
	trace.FEvSplitFail: true, trace.FEvMemShed: true, trace.FEvImportUse: true,
}

// checkFlightShape asserts what every correct single-job UNSAT flight log
// has, whichever shell recorded it, and returns its non-incidental kinds.
func checkFlightShape(t *testing.T, runtime string, evs []trace.FEvent) map[string]bool {
	t.Helper()
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("%s flight log invalid: %v", runtime, err)
	}
	if v := trace.Verdict(evs); v != "UNSAT" {
		t.Fatalf("%s flight verdict %q, want UNSAT", runtime, v)
	}
	counts := trace.CountByKind(evs)
	if counts[trace.FEvSplitAccept] == 0 {
		t.Fatalf("%s run never split; the comparison would be vacuous", runtime)
	}
	if leaves := len(trace.BuildLineage(evs).Leaves()); int64(leaves) != counts[trace.FEvSplitAccept]+1 {
		t.Fatalf("%s lineage has %d leaves, want accepts+1 = %d", runtime, leaves, counts[trace.FEvSplitAccept]+1)
	}
	var units int64
	for _, ev := range evs {
		if ev.Kind == trace.FEvProgress {
			units = ev.N
		}
	}
	if units != int64(coverageFull) {
		t.Fatalf("%s coverage closed at %d units, want exactly %d", runtime, units, coverageFull)
	}
	kinds := map[string]bool{}
	for k := range counts {
		if !incidentalKinds[k] {
			kinds[k] = true
		}
	}
	return kinds
}

// TestLiveAndSimulatedRuntimesAgree runs the same instance through both
// shells — core.Solve (goroutines over the in-process transport) and
// RunDistributed (the DES) — around the one control plane. Both flight
// logs must validate, carry a leaves == accepts+1 lineage, close exactly
// the full search space, and use the same set of event kinds: a kind only
// one runtime emits means a behaviour exists twice, or in one place only.
func TestLiveAndSimulatedRuntimesAgree(t *testing.T) {
	f := gen.RandomKSAT(190, 809, 3, 1)
	if st := solver.New(f, solver.DefaultOptions()).Solve(solver.Limits{}).Status; st != solver.StatusUNSAT {
		t.Fatalf("fixture is %v, want an UNSAT instance", st)
	}
	simFlight := trace.NewFlight(nil)
	cfg := desConfig(f, 100_000)
	cfg.MaxClients = 3
	cfg.Client.MinRunTime = vsecDuration(2)
	cfg.Master.Flight = simFlight
	sim := RunDistributed(cfg)
	if sim.Outcome != OutcomeSolved || sim.Status != solver.StatusUNSAT || sim.State.Jobs[0].Units != coverageFull {
		t.Fatalf("DES: %v/%v, %d coverage units", sim.Outcome, sim.Status, sim.State.Jobs[0].Units)
	}
	liveFlight := trace.NewFlight(nil)
	live, err := Solve(f, JobConfig{
		Clients: 3,
		Master:  MasterConfig{Timeout: time.Minute, Flight: liveFlight},
		Client: ClientConfig{FreeMemBytes: 64 << 20, ShareMaxLen: 10,
			MinRunTime: 2 * time.Millisecond, SliceConflicts: 100},
	})
	defer dumpFlight(t, liveFlight)
	if err != nil {
		t.Fatal(err)
	}
	if live.Status != sim.Status {
		t.Fatalf("live=%v sim=%v", live.Status, sim.Status)
	}
	simKinds := checkFlightShape(t, "DES", simFlight.Events())
	liveKinds := checkFlightShape(t, "live", liveFlight.Events())
	for k := range simKinds {
		if !liveKinds[k] {
			t.Errorf("kind %q emitted by the DES only", k)
		}
	}
	for k := range liveKinds {
		if !simKinds[k] {
			t.Errorf("kind %q emitted by the live runtime only", k)
		}
	}
}

// vsecDuration converts virtual seconds to the time.Duration that
// ClientConfig.MinRunTime holds them in under the DES.
func vsecDuration(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
