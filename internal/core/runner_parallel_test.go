package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// simRow is one configuration of the table of simulated runs.
type simRow struct {
	name string
	mk   func() RunnerConfig
	// procs are the worker counts the row runs at, GOMAXPROCS=1 first; nil
	// is 1 and 2. The seconds-long PH9 and PH10 rows run once, at the
	// process's own count (0).
	procs []int
	// outcome is how the run must end (the zero value: solved).
	outcome SimOutcome
	// same names a row whose run this one must be, result and flight log.
	same  string
	check func(*testing.T, simRun)
}

// simRun is what every run of a row must agree on.
type simRun struct {
	procs int // the GOMAXPROCS it ran at; 0 is the process's own
	cfg   RunnerConfig
	res   SimResult
	fl    *trace.Flight
	log   []byte // fl's JSONL
}

// simRows are the DES configurations whose properties the table checks:
// the paths that launch, land or join a quantum; each split strategy and
// portfolio width; crashes, migrations, batch nodes, served and cancelled
// jobs.
func simRows() []simRow {
	every, once := []int{1, 2, 8}, []int{0}
	ph8 := func() RunnerConfig {
		cfg := desConfig(gen.Pigeonhole(8), 10_000)
		cfg.Client.MinRunTime = vsecDuration(5)
		return cfg
	}
	with := func(mk func() RunnerConfig, edit func(*RunnerConfig)) func() RunnerConfig {
		return func() RunnerConfig {
			cfg := mk()
			edit(&cfg)
			return cfg
		}
	}
	plain := func() RunnerConfig { return desConfig(gen.Pigeonhole(8), 10_000) }
	dilemma40 := func(strategy string) func() RunnerConfig {
		return with(ph8, func(cfg *RunnerConfig) {
			cfg.Client.ShareMaxLen = 40
			cfg.Client.SplitStrategy = strategy
		})
	}
	ph9 := func(strategy string, failures ...FailurePlan) func() RunnerConfig {
		return func() RunnerConfig {
			cfg := desConfig(gen.Pigeonhole(9), 100_000)
			cfg.Client.MinRunTime = vsecDuration(2)
			cfg.Client.SplitStrategy = strategy
			cfg.Failures = failures
			return cfg
		}
	}
	crashes1 := []FailurePlan{{HostID: 0, AtVSec: 30}, {HostID: 1, AtVSec: 45}}
	crashes2 := []FailurePlan{{HostID: 20, AtVSec: 8}, {HostID: 31, AtVSec: 30}}
	crashes3 := []FailurePlan{{HostID: 0, AtVSec: 10}, {HostID: 2, AtVSec: 14}}
	// recovers: a crash took live work, and the master handed it on. The
	// other crash rows recover nothing at their seeds; checkSimRun still
	// requires the client-leave of each.
	recovers := func(t *testing.T, r simRun) {
		if trace.Summarize(r.fl.Events()).PerKind[trace.FEvRecover] == 0 {
			t.Fatal("no crashed client's work was recovered; pick a config that recovers some")
		}
	}
	dilemmaTree := func(t *testing.T, r simRun) {
		m := trace.BuildLineage(r.fl.Events()).Metrics()
		if m.MaxFanout < 2 || m.UnsatLeaves == 0 || m.KillDepthMax < 1 || m.BalanceMean <= 0 || m.BalanceMean > 1 {
			t.Fatalf("degenerate lineage metrics: %+v", m)
		}
	}

	return []simRow{
		// The paths that launch, land or join a quantum, at 1, 2 and 8 workers.
		{name: "first-decision", mk: ph8, procs: every},
		{name: "dilemma", mk: with(ph8, func(cfg *RunnerConfig) { cfg.Client.SplitStrategy = "dilemma" }), procs: every},
		{name: "batch-terminate-on-end", mk: func() RunnerConfig {
			// Ends by the batch job's walltime with every client mid-quantum,
			// far before the timeout.
			g := grid.TestbedTable2(3)
			g.AddBlueHorizon(8)
			cfg := desConfig(gen.Pigeonhole(12), 100_000)
			cfg.Grid = g
			cfg.Batch = &BatchPlan{Nodes: 8, WalltimeVSec: 30, MeanQueueWaitVSec: 20}
			return cfg
		}, procs: every, outcome: OutcomeTimeout, check: func(t *testing.T, r simRun) {
			if r.res.TotalProps == 0 || r.res.VSec > 10_000 {
				t.Fatalf("%d propagations by %v vsec; want quanta in flight when the batch job ends", r.res.TotalProps, r.res.VSec)
			}
		}},
		{name: "crash-mid-quantum-and-idle", mk: with(ph8, func(cfg *RunnerConfig) {
			// Host 31 (ucsd-05) registers first at this seed and computes the
			// root subproblem from 2 vs on; host 20 has registered by 8 vs and
			// has nothing to do before the first split, at 10 vs.
			cfg.Failures = []FailurePlan{{HostID: 20, AtVSec: 8}, {HostID: 31, AtVSec: 30}}
		}), procs: every, check: func(t *testing.T, r simRun) {
			if n := trace.Summarize(r.fl.Events()).PerKind[trace.FEvRecover]; n != 1 {
				t.Fatalf("%d recoveries, want 1: one crash of a computing client, one of an idle one", n)
			}
		}},
		{name: "migration", mk: func() RunnerConfig {
			g := grid.TestbedGrADS(1)
			for _, h := range g.Hosts {
				h.Speed = 0.3
				h.BaseAvail = 0.4
			}
			g.AddBlueHorizon(8)
			cfg := desConfig(gen.Pigeonhole(8), 100_000)
			cfg.Grid = g
			cfg.MaxClients = 2
			cfg.MigrationFactor = 2
			cfg.MonitorPeriodVSec = 10
			cfg.Batch = &BatchPlan{Nodes: 8, WalltimeVSec: 100_000, MeanQueueWaitVSec: 15}
			return cfg
		}, procs: every},
		{name: "portfolio-k2", mk: with(ph8, func(cfg *RunnerConfig) { cfg.Client.Threads = 2 }), procs: every},
		{name: "three-jobs-cancel", mk: func() RunnerConfig {
			cfg := desSchedConfig([]SimJob{
				{Name: "long", Formula: gen.Pigeonhole(8), Priority: 1, ArrivalVSec: 1},
				{Name: "late", Formula: gen.Pigeonhole(7), Priority: 1, ArrivalVSec: 25},
				{Name: "doomed", Formula: gen.Pigeonhole(10), Priority: 1, ArrivalVSec: 30, CancelVSec: 60},
			}, 100_000)
			cfg.MaxClients = 2
			return cfg
		}, procs: every, check: func(t *testing.T, r simRun) {
			if doomed := r.res.State.Jobs[2]; doomed.Verdict != "CANCELLED" || doomed.StartedAt == 0 {
				t.Fatalf("doomed job %+v; pick a config that cancels a job that is computing", doomed)
			}
		}},

		// Every other configuration the reproduction's claims rest on.
		{name: "portfolio-k4", mk: with(ph8, func(cfg *RunnerConfig) { cfg.Client.Threads = 4 })},
		{name: "portfolio-k3-crash", mk: func() RunnerConfig {
			cfg := portfolioDESConfig(gen.Pigeonhole(8), 3)
			cfg.Failures = []FailurePlan{{HostID: 0, AtVSec: 30}}
			return cfg
		}},
		{name: "threads-1", mk: with(ph8, func(cfg *RunnerConfig) { cfg.Client.Threads = 1 }), same: "first-decision"},
		{name: "multi-job", mk: func() RunnerConfig {
			cfg := desSchedConfig([]SimJob{
				{Name: "long", Formula: gen.Pigeonhole(8), Priority: 1, ArrivalVSec: 1},
				{Name: "late", Formula: gen.Pigeonhole(7), Priority: 1, ArrivalVSec: 25},
			}, 100_000)
			cfg.MaxClients = 2
			return cfg
		}},
		{name: "crash-recovery", mk: with(ph8, func(cfg *RunnerConfig) { cfg.Failures = crashes1 }), check: recovers},
		{name: "dilemma-share40", mk: dilemma40("dilemma"), check: dilemmaTree},
		{name: "dilemma-veto-share40", mk: dilemma40("dilemma-veto"), check: dilemmaTree},
		{name: "plain", mk: plain},
		{name: "plain-crash-at-5", mk: with(plain, func(cfg *RunnerConfig) { cfg.Failures = []FailurePlan{{HostID: 0, AtVSec: 5}} })},
		{name: "sat", mk: func() RunnerConfig { return desConfig(gen.RandomKSAT(60, 255, 3, 9), 10_000) },
			check: func(t *testing.T, r simRun) {
				if r.res.Status != solver.StatusSAT {
					t.Fatalf("status %v on a satisfiable instance", r.res.Status)
				}
				if err := r.cfg.Master.Formula.Verify(r.res.Model); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "migration-k2", mk: func() RunnerConfig {
			// A portfolio client's subproblem moves: the donor's workers all
			// stop, and the recipient rebuilds a full-width portfolio from the
			// cube.
			cfg := migrationDESConfig(2)
			cfg.Master.Formula = gen.Pigeonhole(8)
			return cfg
		}},

		// Seconds a run: once each.
		{name: "ph9-share40", mk: func() RunnerConfig {
			// Pigeonhole learns long clauses, and globally valid exports carry
			// their guiding-path literals; a wider share bound keeps them flowing.
			cfg := desConfig(gen.Pigeonhole(9), 10_000)
			cfg.Client.MinRunTime = vsecDuration(5)
			cfg.Client.ShareMaxLen = 40
			return cfg
		}, procs: once, check: func(t *testing.T, r simRun) {
			if r.res.MaxClients < 2 || r.res.MaxClients > 34 || r.res.State.Shared == 0 {
				t.Fatalf("%d clients at most on the 34-host testbed, %d clauses shared", r.res.MaxClients, r.res.State.Shared)
			}
		}},
		{name: "ph9-three-crashes", mk: with(ph9("", append(crashes1, FailurePlan{HostID: 5, AtVSec: 60})...),
			func(cfg *RunnerConfig) { cfg.Client.MinRunTime = vsecDuration(5) }), procs: once, check: recovers},
		{name: "ph9-crashes-1/first-decision", mk: ph9("first-decision", crashes1...), procs: once, check: recovers},
		{name: "ph9-crashes-1/dilemma", mk: ph9("dilemma", crashes1...), procs: once, check: recovers},
		{name: "ph9-crashes-2/first-decision", mk: ph9("first-decision", crashes2...), procs: once, check: recovers},
		{name: "ph9-crashes-2/dilemma", mk: ph9("dilemma", crashes2...), procs: once, check: recovers},
		{name: "ph9-crashes-3/first-decision", mk: ph9("first-decision", crashes3...), procs: once},
		{name: "ph9-crashes-3/dilemma", mk: ph9("dilemma", crashes3...), procs: once},
		{name: "ph9-served", mk: func() RunnerConfig {
			// The formula is a served job (job 1, not the one-shot job 0), so
			// the tree must key every subproblem by its job.
			cfg := ph9("first-decision", crashes1...)()
			cfg.Jobs = []SimJob{{Name: "ph9", Formula: cfg.Master.Formula, Priority: 1, ArrivalVSec: 1}}
			cfg.Master.Formula = nil
			return cfg
		}, procs: once, check: func(t *testing.T, r simRun) {
			recovers(t, r)
			if j := jobByID(t, r.res, 1); j.Verdict != "UNSAT" {
				t.Fatalf("served job: %s", j.Verdict)
			}
		}},
		{name: "ph10-migration", mk: func() RunnerConfig { return migrationDESConfig(1) }, procs: once},
	}
}

// TestParallelDESIsTheSerialDES is the table of simulated runs. Each row runs
// with a flight recorder at each of its worker counts (runtime.GOMAXPROCS),
// which must not show anywhere in a run: with one worker a quantum is
// computed whole before the event loop looks at it again — the serial
// kernel's order; with two or eight, quanta overlap with each other and
// with the loop. So every run of a row gives the same SimResult and the same
// flight log, byte for byte. Then checkSimRun holds the run to what every
// simulated run must show, and the row's check to what only it shows.
// The tests in runner_rows_test.go check further properties of some rows'
// runs, each under a name of its own.
func TestParallelDESIsTheSerialDES(t *testing.T) {
	for _, row := range simRows() {
		t.Run(row.name, func(t *testing.T) {
			r := row.simulate(t)[0]
			defer dumpFlight(t, r.fl)
			if r.res.Outcome != row.outcome {
				t.Fatalf("outcome %v, want %v", r.res.Outcome, row.outcome)
			}
			checkSimRun(t, r)
			if row.same != "" {
				mustMatch(t, r, runsOf(t, row.same)[0], "the "+row.same+" row")
			}
			if row.check != nil {
				row.check(t, r)
			}
		})
	}
}

// simulate runs the row at each of its worker counts, failing t where a
// later run differs from the first, and returns the runs, which it also
// keeps for runsOf.
func (row simRow) simulate(t *testing.T) []simRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := row.procs
	if procs == nil {
		procs = []int{1, 2}
	}
	runs := make([]simRun, len(procs))
	for i, p := range procs {
		if p > 0 {
			runtime.GOMAXPROCS(p)
		}
		fl := trace.NewFlight(nil)
		cfg := row.mk()
		cfg.Master.Flight = fl
		runs[i] = simRun{procs: p, cfg: cfg, res: RunDistributed(cfg), fl: fl}
		var log bytes.Buffer
		if err := fl.WriteJSONL(&log); err != nil {
			t.Fatal(err)
		}
		runs[i].log = log.Bytes()
	}
	lastRuns[row.name] = runs
	for _, r := range runs[1:] {
		mustMatch(t, r, runs[0], fmt.Sprintf("GOMAXPROCS=%d", r.procs))
	}
	return runs
}

// lastRuns holds each row's runs as simulate last made them. The table
// and the tests that read it do not run in parallel.
var lastRuns = map[string][]simRun{}

// runsOf returns row name's runs as the table last made them, so a test
// that checks a property of a row's runs simulates nothing again; run
// without the table (under -run), it simulates the row itself.
func runsOf(t *testing.T, name string) []simRun {
	t.Helper()
	if runs, ok := lastRuns[name]; ok {
		return runs
	}
	return rowNamed(t, name).simulate(t)
}

// rowNamed returns the table's row name.
func rowNamed(t *testing.T, name string) simRow {
	t.Helper()
	rows := simRows()
	i := slices.IndexFunc(rows, func(r simRow) bool { return r.name == name })
	if i < 0 {
		t.Fatalf("no row %q in the table", name)
	}
	return rows[i]
}

// mustMatch fails t where got is not the run want is: the same flight log,
// event for event and byte for byte, and the same SimResult.
func mustMatch(t *testing.T, got, want simRun, what string) {
	t.Helper()
	if err := trace.CompareLogs(want.fl.Events(), got.fl.Events()); err != nil {
		t.Errorf("%s: %v", what, err)
	} else if !bytes.Equal(got.log, want.log) {
		t.Errorf("%s: flight log (%d bytes) is not the %d bytes of the first run's", what, len(got.log), len(want.log))
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: result differs from the first run's:\n got %+v\nwant %+v", what, got.res, want.res)
	}
}

// checkSimRun asserts what every simulated run's record shows: a valid log
// that survives its JSONL form, one split-accept per split the master
// counted, a client-leave behind every recovery, no cube migrated to the
// client it came from, job verdicts as the log has them, an active-client
// curve that starts at the root's one client, runs forward in time, peaks
// at MaxClients and ends at none; and for each UNSAT job, a split tree
// whose refuted leaves partition the root exactly, as the master's
// coverage says. What the row's config turns on must show:
// a crash leaves a client-leave, migration migrates, a K-wide portfolio is
// K wide and exchanges clauses in the host — and K ≤ 1 exchanges none.
func checkSimRun(t *testing.T, r simRun) {
	t.Helper()
	evs := r.fl.Events()
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("flight log invalid: %v", err)
	}
	back, err := trace.ReadJSONL(bytes.NewReader(r.log))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.CompareLogs(evs, back); err != nil {
		t.Fatalf("JSONL round trip: %v", err)
	}
	counts := trace.Summarize(evs).PerKind
	if counts[trace.FEvRunStart] != 1 || counts[trace.FEvVerdict] == 0 || evs[len(evs)-1].VSec <= 0 {
		t.Fatalf("%d run-start and %d verdict events, the last at %v vsec", counts[trace.FEvRunStart], counts[trace.FEvVerdict], evs[len(evs)-1].VSec)
	}
	if int(counts[trace.FEvSplitAccept]) != r.res.State.Splits {
		t.Fatalf("%d split-accept events for %d splits", counts[trace.FEvSplitAccept], r.res.State.Splits)
	}
	// A run that found no model must split, or the tree checks below would
	// hold of a tree of one node.
	if r.res.Status != solver.StatusSAT && r.res.State.Splits == 0 {
		t.Fatal("run never split; pick a config that does")
	}
	if len(r.cfg.Failures) > 0 && counts[trace.FEvClientLeave] == 0 {
		t.Error("client crash left no client-leave event")
	}
	if r.cfg.MigrationFactor > 0 && r.res.State.Migrations == 0 {
		t.Error("config no longer migrates; pick one that does")
	}
	if k := r.cfg.Client.Threads; k > 1 && (r.res.Threads != k || r.res.Pool.Published == 0 || r.res.Pool.Delivered == 0) {
		t.Errorf("Threads = %d (want %d), pool published %d, delivered %d: the in-host pool exchanged nothing",
			r.res.Threads, k, r.res.Pool.Published, r.res.Pool.Delivered)
	} else if k <= 1 && r.res.Pool.Published != 0 {
		t.Errorf("Threads=%d used the in-host pool: %d publishes", k, r.res.Pool.Published)
	}
	tl := r.res.Timeline
	if len(tl) == 0 || tl[0].Busy != 1 || tl[len(tl)-1].Busy != 0 {
		t.Errorf("active-client curve %v: want it to start at 1 busy client and end at 0", tl)
	}
	peak := 0
	for i, p := range tl {
		peak = max(peak, p.Busy)
		if i > 0 && p.VSec < tl[i-1].VSec {
			t.Errorf("active-client curve not time-ordered at point %d: %v after %v", i, p, tl[i-1])
		}
	}
	if peak != r.res.MaxClients {
		t.Errorf("active-client curve peaks at %d, MaxClients is %d", peak, r.res.MaxClients)
	}
	byID := make(map[uint64]trace.FEvent, len(evs))
	for _, ev := range evs {
		byID[ev.ID] = ev
		switch {
		case ev.Kind == trace.FEvRecover && byID[ev.Parent].Kind != trace.FEvClientLeave:
			t.Errorf("recover event %d has parent %d (%+v), want a client-leave", ev.ID, ev.Parent, byID[ev.Parent])
		case ev.Kind == trace.FEvMigrate && ev.Client == ev.Peer:
			t.Errorf("event %d moves cube %q from client %d back to itself", ev.ID, ev.Cube, ev.Client)
		}
	}
	strategy := r.cfg.Client.SplitStrategy
	firstDecision := strategy == "" || strategy == "first-decision"
	verdicts := trace.JobVerdicts(evs)
	for _, j := range r.res.State.Jobs {
		if verdicts[j.ID] != j.Verdict {
			t.Errorf("job %d: the log's verdict %q, the result's %q", j.ID, verdicts[j.ID], j.Verdict)
		}
		if j.Verdict == "UNSAT" {
			checkRefutedTree(t, j, evs, firstDecision)
		}
	}
}

// checkRefutedTree reads job j's split tree off the log: every node hangs
// off the root, every leaf is refuted, and the leaves' 2^-len sum to
// exactly the whole space, which is what the master's coverage reads.
// Under first-decision splitting a node's depth is its cube's length, and
// each split adds two nodes, the recipient's cofactor and the donor's rest.
func checkRefutedTree(t *testing.T, j JobSnapshot, evs []trace.FEvent, firstDecision bool) {
	t.Helper()
	if j.Units != coverageFull || j.Coverage != 1 {
		t.Errorf("job %d: coverage %v (%d units), want exactly 1 (%d units)", j.ID, j.Coverage, j.Units, coverageFull)
	}
	var own []trace.FEvent
	for _, ev := range evs {
		if ev.Job == j.ID {
			own = append(own, ev)
		}
	}
	tree := trace.BuildLineage(own)
	var refuted uint64
	reached := 0
	var walk func(n *trace.LineageNode, depth int)
	walk = func(n *trace.LineageNode, depth int) {
		reached++
		cubeLen := len(strings.Fields(n.Cube))
		if firstDecision && depth != cubeLen {
			t.Errorf("job %d: node #%d (cube %q) sits at depth %d, not its cube's length %d", j.ID, n.ID, n.Cube, depth, cubeLen)
		}
		if len(n.Children) == 0 {
			if n.Status != trace.NodeUNSAT {
				t.Errorf("job %d: leaf #%d (cube %q) is %s in an UNSAT run", j.ID, n.ID, n.Cube, n.Status)
			}
			refuted += coverageUnits(cubeLen)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(tree.Root, 0)
	if reached != len(tree.Nodes()) {
		t.Errorf("job %d: %d of %d nodes hang off the root", j.ID, reached, len(tree.Nodes()))
	}
	if refuted != coverageFull {
		t.Errorf("job %d: refuted leaves cover %d units, want exactly %d", j.ID, refuted, coverageFull)
	}
	accepts := trace.Summarize(own).PerKind[trace.FEvSplitAccept]
	if leaves := int64(len(tree.Leaves())); leaves != accepts+1 {
		t.Errorf("job %d: %d leaves, want accepts+1 = %d", j.ID, leaves, accepts+1)
	}
	if nodes := int64(len(tree.Nodes())); firstDecision && nodes != 2*accepts+1 {
		t.Errorf("job %d: %d nodes, want 2*accepts+1 = %d", j.ID, nodes, 2*accepts+1)
	}
}

// migrationDESConfig is PH(10) on two handicapped interactive hosts while
// eight dedicated batch nodes queue: when they join they dominate, and
// the master migrates long-running subproblems to them.
func migrationDESConfig(threads int) RunnerConfig {
	g := grid.TestbedTable2(4)
	// Handicap the interactive hosts so the batch nodes dominate.
	for _, h := range g.Hosts {
		h.Speed = 0.3
		h.MemBytes = 64 << 20
		h.BaseAvail = 0.4
	}
	g.AddBlueHorizon(8)
	cfg := desConfig(gen.Pigeonhole(10), 100_000)
	cfg.Grid = g
	cfg.MaxClients = 2
	cfg.Client.Threads = threads
	cfg.MigrationFactor = 2
	cfg.MonitorPeriodVSec = 10
	cfg.Batch = &BatchPlan{Nodes: 8, WalltimeVSec: 100_000, MeanQueueWaitVSec: 15}
	return cfg
}

// portfolioDESConfig runs Threads-wide portfolio clients.
func portfolioDESConfig(f *cnf.Formula, threads int) RunnerConfig {
	cfg := desConfig(f, 100_000)
	cfg.Client.MinRunTime = vsecDuration(5)
	cfg.Client.Threads = threads
	return cfg
}

// TestProgressBoundOrdersTheLoop drives the event loop against a quantum
// whose progress the test controls. The loop must not run the event at
// T = 5 while the quantum (t0 = 0, one propagation per virtual second) has
// published 5 or fewer propagations — it could still end at or before 5 —
// must run it once 6 are published, without waiting for the quantum to
// finish, and must give the end event the place in the order reserved at
// launch: after what was scheduled for the same instant before the launch,
// before what was scheduled after it.
func TestProgressBoundOrdersTheLoop(t *testing.T) {
	r := &runner{cfg: RunnerConfig{TimeoutVSec: 100}, sim: grid.NewSim()}
	defer r.startWorkers(1, 1)()

	var order []string
	ran := make(chan struct{})
	r.sim.At(10, func() { order = append(order, "tie-before") })
	r.launchQuantum(1, func(publish func(int64)) (longest, total int64) {
		for done := int64(1); done <= 6; done++ {
			publish(done)
		}
		select {
		case <-ran:
		case <-time.After(10 * time.Second):
			t.Error("the event at T=5 did not run with 6 propagations published: the loop waits for the quantum to finish")
		}
		return 10, 12
	}, func() { order = append(order, "end") })
	q := r.quanta[0]
	r.sim.At(5, func() {
		r.mu.Lock()
		bound, finished := q.notBefore(), q.finished
		r.mu.Unlock()
		if !(r.sim.Now() < bound) || finished {
			t.Errorf("event at T=%v ran with the quantum's bound at %v (finished=%v)", r.sim.Now(), bound, finished)
		}
		order = append(order, "T=5")
		close(ran)
	})
	r.sim.At(10, func() { order = append(order, "tie-after") })

	r.run()
	if want := []string{"T=5", "tie-before", "end", "tie-after"}; !reflect.DeepEqual(order, want) {
		t.Errorf("events ran as %v, want %v", order, want)
	}
	if r.sim.Now() != 10 || r.res.TotalProps != 12 || len(r.quanta) != 0 {
		t.Errorf("now=%v TotalProps=%d in flight=%d, want 10, 12, 0", r.sim.Now(), r.res.TotalProps, len(r.quanta))
	}
}
