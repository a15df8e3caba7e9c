package core

import (
	"os"
	"slices"
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

func desSchedConfig(jobs []SimJob, policy string, timeout float64) RunnerConfig {
	return RunnerConfig{
		Grid:              grid.TestbedGrADS(1),
		Master:            MasterConfig{SchedPolicy: policy},
		Client:            ClientConfig{ShareMaxLen: 10},
		Jobs:              jobs,
		TimeoutVSec:       timeout,
		PropsPerVSec:      1000,
		QuantumProps:      5000,
		MonitorPeriodVSec: 10,
		Seed:              1,
	}
}

// schedSATFormula is a satisfiable instance whose SAT-ness is verified
// against the brute-force oracle, so verdict assertions can't drift with
// the generator.
func schedSATFormula(t *testing.T) *cnf.Formula {
	t.Helper()
	f := gen.RandomKSAT(20, 70, 3, 11)
	if want, _ := brute.Solve(f, 0); want != brute.SAT {
		t.Fatal("fixture formula is not SAT; pick another seed")
	}
	return f
}

func jobByID(t *testing.T, res SimResult, id int) SimJobResult {
	t.Helper()
	for _, jr := range res.Jobs {
		if jr.ID == id {
			return jr
		}
	}
	t.Fatalf("no result for job %d in %+v", id, res.Jobs)
	return SimJobResult{}
}

// TestRunDistributedTwoConcurrentJobs is the DES half of the multi-job
// acceptance criterion: two jobs overlap in virtual time under fair-share
// and both reach correct verdicts.
func TestRunDistributedTwoConcurrentJobs(t *testing.T) {
	sat := schedSATFormula(t)
	jobs := []SimJob{
		{Name: "unsat", Formula: gen.Pigeonhole(8), Priority: 1, ArrivalVSec: 1},
		{Name: "sat", Formula: sat, Priority: 1, ArrivalVSec: 2},
	}
	fl := trace.NewFlight(nil)
	cfg := desSchedConfig(jobs, "fair-share", 50_000)
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("outcome %v, want solved (jobs: %+v)", res.Outcome, res.Jobs)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("got %d job results, want 2", len(res.Jobs))
	}
	j1, j2 := jobByID(t, res, 1), jobByID(t, res, 2)
	if j1.Verdict != "UNSAT" {
		t.Fatalf("job 1 verdict %q, want UNSAT", j1.Verdict)
	}
	if j2.Verdict != "SAT" {
		t.Fatalf("job 2 verdict %q, want SAT", j2.Verdict)
	}
	if err := sat.Verify(j2.Model); err != nil {
		t.Fatalf("job 2 model does not satisfy its formula: %v", err)
	}
	// Both jobs ran concurrently: job 2 started before job 1 finished.
	if j2.StartVSec >= j1.FinishVSec {
		t.Fatalf("jobs never overlapped: job 2 started at %v, job 1 finished at %v",
			j2.StartVSec, j1.FinishVSec)
	}
	if res.MakespanVSec <= 0 {
		t.Fatal("makespan not recorded")
	}
	// The flight log's job verdicts agree with the result.
	verdicts := trace.JobVerdicts(fl.Events())
	if verdicts[1] != "UNSAT" || verdicts[2] != "SAT" {
		t.Fatalf("flight verdicts %v disagree with results", verdicts)
	}
}

// TestRunDistributedSchedPreemptChain asserts a real malleable
// reassignment inside the DES: a long job absorbs the cluster, a second
// arrival forces a preemption, and the flight log shows the
// preempt → migrate → resume chain with matching parents.
func TestRunDistributedSchedPreemptChain(t *testing.T) {
	jobs := []SimJob{
		{Name: "long", Formula: gen.Pigeonhole(9), Priority: 1, ArrivalVSec: 1},
		{Name: "late", Formula: gen.Pigeonhole(7), Priority: 1, ArrivalVSec: 40},
	}
	fl := trace.NewFlight(nil)
	cfg := desSchedConfig(jobs, "fair-share", 200_000)
	// Two clients total, so the long job provably holds the whole cluster
	// when the second job arrives — its start REQUIRES a preemption.
	cfg.MaxClients = 2
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("outcome %v (jobs: %+v)", res.Outcome, res.Jobs)
	}
	j1, j2 := jobByID(t, res, 1), jobByID(t, res, 2)
	if j1.Verdict != "UNSAT" || j2.Verdict != "UNSAT" {
		t.Fatalf("verdicts %q/%q, want UNSAT/UNSAT (lost search space?)", j1.Verdict, j2.Verdict)
	}
	if res.Preemptions < 1 {
		t.Fatalf("preemptions = %d, want >= 1", res.Preemptions)
	}
	var preempt, migrate, resume *trace.FEvent
	evs := fl.Events()
	for i := range evs {
		ev := &evs[i]
		switch {
		case ev.Kind == trace.FEvJobPreempt && preempt == nil:
			preempt = ev
		case ev.Kind == trace.FEvMigrate && preempt != nil && ev.Parent == preempt.ID && migrate == nil:
			migrate = ev
		case ev.Kind == trace.FEvJobResume && preempt != nil && ev.Parent == preempt.ID && resume == nil:
			resume = ev
		}
	}
	if preempt == nil || migrate == nil || resume == nil {
		t.Fatalf("incomplete preempt chain: preempt=%v migrate=%v resume=%v",
			preempt != nil, migrate != nil, resume != nil)
	}
	if migrate.Client != preempt.Client {
		t.Fatalf("migrate donor %d is not the preempted client %d", migrate.Client, preempt.Client)
	}
	if resume.Client != migrate.Peer {
		t.Fatalf("resume client %d is not the migrate recipient %d", resume.Client, migrate.Peer)
	}
	if migrate.Job != preempt.Job || resume.Job != preempt.Job {
		t.Fatalf("chain crosses jobs: preempt job %d, migrate %d, resume %d",
			preempt.Job, migrate.Job, resume.Job)
	}
}

// TestRunDistributedSchedCancel cancels a job mid-run and expects the
// survivor to finish normally while the cancelled one reports CANCELLED.
func TestRunDistributedSchedCancel(t *testing.T) {
	jobs := []SimJob{
		{Name: "doomed", Formula: gen.Pigeonhole(10), Priority: 1, ArrivalVSec: 1, CancelVSec: 60},
		{Name: "keeper", Formula: gen.Pigeonhole(7), Priority: 1, ArrivalVSec: 5},
	}
	res := RunDistributed(desSchedConfig(jobs, "fifo", 200_000))
	if res.Outcome != OutcomeSolved {
		t.Fatalf("outcome %v (jobs: %+v)", res.Outcome, res.Jobs)
	}
	if v := jobByID(t, res, 1).Verdict; v != "CANCELLED" {
		t.Fatalf("job 1 verdict %q, want CANCELLED", v)
	}
	if v := jobByID(t, res, 2).Verdict; v != "UNSAT" {
		t.Fatalf("job 2 verdict %q, want UNSAT", v)
	}
}

// TestRunDistributedSchedDeterministic reruns the same multi-job config
// and expects identical results and identical flight logs — the property
// the scheduler ablation harness depends on.
func TestRunDistributedSchedDeterministic(t *testing.T) {
	mk := func() (SimResult, []trace.FEvent) {
		sat := gen.RandomKSAT(20, 70, 3, 11)
		jobs := []SimJob{
			{Name: "a", Formula: gen.Pigeonhole(8), Priority: 2, ArrivalVSec: 1},
			{Name: "b", Formula: sat, Priority: 1, ArrivalVSec: 3},
			{Name: "c", Formula: gen.Pigeonhole(7), Priority: 1, ArrivalVSec: 6},
		}
		fl := trace.NewFlight(nil)
		cfg := desSchedConfig(jobs, "priority", 100_000)
		cfg.Master.Flight = fl
		return RunDistributed(cfg), fl.Events()
	}
	r1, e1 := mk()
	r2, e2 := mk()
	if r1.VSec != r2.VSec || r1.Preemptions != r2.Preemptions || len(r1.Jobs) != len(r2.Jobs) {
		t.Fatalf("results diverge: %+v vs %+v", r1, r2)
	}
	for i := range r1.Jobs {
		if r1.Jobs[i].Verdict != r2.Jobs[i].Verdict || r1.Jobs[i].FinishVSec != r2.Jobs[i].FinishVSec {
			t.Fatalf("job %d diverges: %+v vs %+v", i, r1.Jobs[i], r2.Jobs[i])
		}
	}
	if len(e1) != len(e2) {
		t.Fatalf("flight logs diverge: %d vs %d events", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("flight event %d diverges:\n%+v\n%+v", i, e1[i], e2[i])
		}
	}
}

// TestRunDistributedSingleJobUnchanged holds a one-shot run to the flight
// log the master wrote while it still had a single-job mode: the golden file
// is commit 836712f's log of this very configuration, and today's is that
// plus exactly job 0's three lifecycle events. IDs, Lamport stamps and parent
// links shift by those three and are not compared.
func TestRunDistributedSingleJobUnchanged(t *testing.T) {
	const golden = "testdata/oneshot_ph8_parent.flight.jsonl"
	fl := trace.NewFlight(nil)
	cfg := desConfig(gen.Pigeonhole(8), 10_000)
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", res.Outcome, res.Status)
	}
	if res.Jobs != nil || res.Preemptions != 0 {
		t.Fatalf("one-shot run grew per-job results: %+v", res.Jobs)
	}
	var got []trace.FEvent
	var lifecycle []string
	for _, ev := range fl.Events() {
		if ev.Job != 0 {
			t.Fatalf("one-shot event carries a job tag: %+v", ev)
		}
		switch ev.Kind {
		case trace.FEvJobSubmit, trace.FEvJobStart, trace.FEvJobDone:
			lifecycle = append(lifecycle, ev.Kind)
		default:
			got = append(got, ev)
		}
	}
	if !slices.Equal(lifecycle, []string{trace.FEvJobSubmit, trace.FEvJobStart, trace.FEvJobDone}) {
		t.Fatalf("job 0 lifecycle events %v, want one submit, start and done", lifecycle)
	}
	fd, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	want, err := trace.ReadJSONL(fd)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events besides job 0's lifecycle, the single-job master logged %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.ID, g.Lamport, g.Parent = 0, 0, 0
		w.ID, w.Lamport, w.Parent = 0, 0, 0
		if g != w {
			t.Fatalf("event %d diverges from the single-job master's:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestOneShotIsAOneJobService: a formula handed to the runner as its one
// Formula (the master's job 0, admitted at construction) and as the only
// SimJob, arriving at t=0 (job 1, submitted like any other), is the same run
// — one control flow took both. What may differ is what the job's ID costs
// on the wire (a tag on every frame, and no relay to clients that have not
// worked for job 1 yet), so Msgs and Bytes are not compared.
func TestOneShotIsAOneJobService(t *testing.T) {
	bart15, _ := gen.ByName("bart15")
	for _, inst := range []struct {
		name    string
		formula *cnf.Formula
	}{{"ph8", gen.Pigeonhole(8)}, {"bart15", bart15.Build()}} {
		for _, strategy := range []string{"first-decision", "dilemma"} {
			t.Run(inst.name+"/"+strategy, func(t *testing.T) {
				cfg := desConfig(inst.formula, 6000)
				cfg.Client.SplitStrategy = strategy
				shot := RunDistributed(cfg)
				cfg.Master.Formula = nil
				cfg.Jobs = []SimJob{{Name: inst.name, Formula: inst.formula, Priority: 1}}
				svc := RunDistributed(cfg)
				if len(svc.Jobs) != 1 || shot.Jobs != nil {
					t.Fatalf("per-job rows: one-shot %+v, service %+v", shot.Jobs, svc.Jobs)
				}
				job := svc.Jobs[0]
				if shot.Outcome != OutcomeSolved || svc.Outcome != OutcomeSolved || job.Status != shot.Status ||
					job.Verdict != shot.Status.String() {
					t.Fatalf("one-shot %v/%v, service %v/%v (%q)", shot.Outcome, shot.Status, svc.Outcome, job.Status, job.Verdict)
				}
				if shot.Status == solver.StatusSAT && inst.formula.Verify(job.Model) != nil {
					t.Fatal("the service's model does not satisfy the formula")
				}
				type totals struct {
					vsec                       float64
					splits, shared, maxClients int
					props                      int64
				}
				a := totals{shot.VSec, shot.Splits, shot.Shared, shot.MaxClients, shot.TotalProps}
				b := totals{svc.VSec, svc.Splits, svc.Shared, svc.MaxClients, svc.TotalProps}
				if a != b || job.FinishVSec != shot.VSec {
					t.Fatalf("one-shot %+v\n service %+v (job finished at %v)", a, b, job.FinishVSec)
				}
				if !slices.Equal(shot.Timeline, svc.Timeline) {
					t.Fatalf("timelines differ: %d points vs %d", len(shot.Timeline), len(svc.Timeline))
				}
			})
		}
	}
}

// TestJobDemand pins the demand estimate the policies apportion against —
// the one both shells now share.
func TestJobDemand(t *testing.T) {
	now := 1.0
	m := bareMaster(t, &now)
	m.fanout = 2
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	id, err := m.submit("j", f, 1)
	if err != nil {
		t.Fatal(err)
	}
	j := m.jobs[id]
	if d := m.jobDemand(m.tally(), j); d != 1 {
		t.Fatalf("unstarted job demand %d, want 1 (the root)", d)
	}
	// Three live subproblems — the root on the only client, two cofactors
	// queued behind it — and that client's split request, which no idle
	// client can serve.
	c := m.clients[m.connect()]
	m.handle(from(c.id, comm.Register{Addr: "a", FreeMemBytes: 64 << 20, SpeedHint: 1}))
	for range 2 {
		j.subBacklog = append(j.subBacklog, backlogSub{job: id, sub: &solver.Subproblem{NumVars: 2, Depth: 1}})
	}
	m.handle(from(c.id, comm.SplitRequest{ClientID: c.id}))
	if !c.busy || len(j.backlog) != 1 || len(j.subBacklog) != 2 {
		t.Fatalf("setup: busy=%v backlog=%d queued=%d", c.busy, len(j.backlog), len(j.subBacklog))
	}
	if d := m.jobDemand(m.tally(), j); d != 5 {
		t.Fatalf("demand %d, want outstanding 3 + backlog 1×fanout 2 = 5", d)
	}
}

// TestRunDistributedAssignmentAtSliceBoundary is the D2 regression, at the
// exact instant the live defect needed a race to hit. The grid is one host,
// the last one, so the one client runs on the master's host and the link
// between them has zero delay: the
// slice that refutes job 1's last subproblem sends Solved, the master
// answers in the same virtual instant with job 2's root, and the payload
// is waiting in the client's control queue when the slice boundary is
// polled — after the client has gone idle. Handling it as if the client
// were still busy (the old drain) dropped it and wedged job 2 for ever.
func TestRunDistributedAssignmentAtSliceBoundary(t *testing.T) {
	jobs := []SimJob{
		{Name: "first", Formula: gen.Pigeonhole(6), Priority: 1, ArrivalVSec: 1},
		{Name: "second", Formula: gen.Pigeonhole(6), Priority: 1, ArrivalVSec: 2},
	}
	fl := trace.NewFlight(nil)
	cfg := desSchedConfig(jobs, "fifo", 10_000)
	cfg.Grid.Hosts = cfg.Grid.Hosts[:1] // host 0 gets the client and the master: a zero-delay link
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("outcome %v (jobs: %+v)", res.Outcome, res.Jobs)
	}
	for id := 1; id <= 2; id++ {
		jr := jobByID(t, res, id)
		if jr.Verdict != "UNSAT" || jr.Coverage != 1 {
			t.Fatalf("job %d: verdict %q coverage %v, want UNSAT with the whole space refuted", id, jr.Verdict, jr.Coverage)
		}
	}
	// The window really was hit: job 2's root went out in the same instant
	// job 1's last refutation came in.
	var lastUNSAT, secondStart float64
	units := map[int]int64{}
	for _, ev := range fl.Events() {
		switch {
		case ev.Kind == trace.FEvSubUNSAT && ev.Job == 1:
			lastUNSAT = ev.VSec
		case ev.Kind == trace.FEvJobStart && ev.Job == 2:
			secondStart = ev.VSec
		case ev.Kind == trace.FEvProgress:
			units[ev.Job] = ev.N
		}
	}
	if secondStart == 0 || secondStart != lastUNSAT {
		t.Fatalf("job 2 started at %v, job 1's last refutation was at %v: not the same instant", secondStart, lastUNSAT)
	}
	if units[1] != int64(coverageFull) || units[2] != int64(coverageFull) {
		t.Fatalf("coverage units %v, want exactly %d for both jobs", units, coverageFull)
	}
}
