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
		Master: MasterConfig{Formula: bart15.Build(), Flight: fl},
		Client: ClientConfig{Threads: 1, ShareMaxLen: 10}, TimeoutVSec: 6000, Seed: 1,
		Watchdog: true,
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
		wantSHA    = "e1a6e989cdc9960bd1f091371fce26c0eb54da3e5068eb7a420a5787537a9d1d"
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
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusSAT {
		t.Fatalf("got %v/%v on a satisfiable instance", res.Outcome, res.Status)
	}
	if err := f.Verify(res.Model); err != nil {
		t.Fatal(err)
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

// TestRunDistributedAgainstBrute checks the DES's verdict against brute
// force on small random instances, under each way of dividing the search
// space or of taking work off a client, each at its own seeds; a SAT
// verdict's model must satisfy the formula.
func TestRunDistributedAgainstBrute(t *testing.T) {
	for _, v := range []struct {
		name       string
		seed, till int64
		mk         func(*cnf.Formula) RunnerConfig
	}{
		{"first-decision", 0, 6, func(f *cnf.Formula) RunnerConfig { return desConfig(f, 10_000) }},
		{"dilemma", 0, 6, func(f *cnf.Formula) RunnerConfig {
			cfg := desConfig(f, 10_000)
			cfg.Client.MinRunTime = vsecDuration(5)
			cfg.Client.SplitStrategy = "dilemma"
			return cfg
		}},
		{"portfolio-k3", 0, 6, func(f *cnf.Formula) RunnerConfig { return portfolioDESConfig(f, 3) }},
		{"crashes", 0, 5, func(f *cnf.Formula) RunnerConfig {
			cfg := desConfig(f, 100_000)
			cfg.Client.MinRunTime = vsecDuration(2)
			cfg.Failures = []FailurePlan{{HostID: 0, AtVSec: 10}, {HostID: 2, AtVSec: 14}}
			return cfg
		}},
		{"migration", 10, 14, func(f *cnf.Formula) RunnerConfig {
			cfg := desConfig(f, 100_000)
			cfg.MigrationFactor = 1.2
			cfg.MonitorPeriodVSec = 5
			cfg.Client.MinRunTime = vsecDuration(2)
			return cfg
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			for seed := v.seed; seed < v.till; seed++ {
				f := gen.RandomKSAT(20, 85, 3, seed)
				want, _ := brute.Solve(f, 0)
				res := RunDistributed(v.mk(f))
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
		})
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

func TestSimOutcomeString(t *testing.T) {
	if OutcomeSolved.String() != "solved" || OutcomeTimeout.String() != "TIME_OUT" ||
		OutcomeMemOut.String() != "MEM_OUT" || SimOutcome(9).String() != "unknown" {
		t.Error("SimOutcome strings wrong")
	}
}

// TestRunDistributedIdleCrashIgnored: losing clients that hold no work
// costs the run nothing to recover — it still solves.
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
	if v := trace.Summarize(evs).Verdict; v != "UNSAT" {
		t.Fatalf("%s flight verdict %q, want UNSAT", runtime, v)
	}
	counts := trace.Summarize(evs).PerKind
	if counts[trace.FEvSplitAccept] == 0 {
		t.Fatalf("%s run never split; the comparison would be vacuous", runtime)
	}
	if leaves := len(trace.BuildLineage(evs).Leaves()); int64(leaves) != counts[trace.FEvSplitAccept]+1 {
		t.Fatalf("%s lineage has %d leaves, want accepts+1 = %d", runtime, leaves, counts[trace.FEvSplitAccept]+1)
	}
	var units int64
	for _, ev := range evs {
		if ev.Kind == trace.FEvSubUNSAT {
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
			MinRunTime: 2 * time.Millisecond},
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
