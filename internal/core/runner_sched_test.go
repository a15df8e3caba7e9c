package core

import (
	"reflect"
	"slices"
	"testing"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

func desSchedConfig(jobs []SimJob, timeout float64) RunnerConfig {
	return RunnerConfig{
		Grid:              grid.TestbedGrADS(1),
		Client:            ClientConfig{ShareMaxLen: 10},
		Jobs:              jobs,
		TimeoutVSec:       timeout,
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

func jobByID(t *testing.T, res SimResult, id int) JobSnapshot {
	t.Helper()
	for _, jr := range res.State.Jobs {
		if jr.ID == id {
			return jr
		}
	}
	t.Fatalf("no row for job %d in %+v", id, res.State.Jobs)
	return JobSnapshot{}
}

// TestRunDistributedTwoConcurrentJobs is the DES half of the multi-job
// acceptance criterion: two jobs overlap in virtual time — the second takes
// the clients the first cannot use — and both reach correct verdicts.
func TestRunDistributedTwoConcurrentJobs(t *testing.T) {
	sat := schedSATFormula(t)
	jobs := []SimJob{
		{Name: "unsat", Formula: gen.Pigeonhole(8), Priority: 1, ArrivalVSec: 1},
		{Name: "sat", Formula: sat, Priority: 1, ArrivalVSec: 2},
	}
	fl := trace.NewFlight(nil)
	cfg := desSchedConfig(jobs, 50_000)
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("outcome %v, want solved (jobs: %+v)", res.Outcome, res.State.Jobs)
	}
	if len(res.State.Jobs) != 2 {
		t.Fatalf("got %d job rows, want 2", len(res.State.Jobs))
	}
	j1, j2 := jobByID(t, res, 1), jobByID(t, res, 2)
	if j1.Verdict != "UNSAT" {
		t.Fatalf("job 1 verdict %q, want UNSAT", j1.Verdict)
	}
	if j2.Verdict != "SAT" {
		t.Fatalf("job 2 verdict %q, want SAT", j2.Verdict)
	}
	if !modelSatisfies(sat, j2.Model) {
		t.Fatalf("job 2 model does not satisfy its formula: %v", j2.Model)
	}
	// Both jobs ran concurrently: job 2 started before job 1 finished.
	if j2.StartedAt >= j1.FinishedAt {
		t.Fatalf("jobs never overlapped: job 2 started at %v, job 1 finished at %v",
			j2.StartedAt, j1.FinishedAt)
	}
	// The flight log's job verdicts agree with the result.
	verdicts := trace.JobVerdicts(fl.Events())
	if verdicts[1] != "UNSAT" || verdicts[2] != "SAT" {
		t.Fatalf("flight verdicts %v disagree with results", verdicts)
	}
}

// TestRunDistributedSchedCancel cancels a job mid-run and expects the
// survivor to finish normally while the cancelled one reports CANCELLED.
func TestRunDistributedSchedCancel(t *testing.T) {
	jobs := []SimJob{
		{Name: "doomed", Formula: gen.Pigeonhole(10), Priority: 1, ArrivalVSec: 1, CancelVSec: 60},
		{Name: "keeper", Formula: gen.Pigeonhole(7), Priority: 1, ArrivalVSec: 5},
	}
	res := RunDistributed(desSchedConfig(jobs, 200_000))
	if res.Outcome != OutcomeSolved {
		t.Fatalf("outcome %v (jobs: %+v)", res.Outcome, res.State.Jobs)
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
		cfg := desSchedConfig(jobs, 100_000)
		cfg.Master.Flight = fl
		return RunDistributed(cfg), fl.Events()
	}
	r1, e1 := mk()
	r2, e2 := mk()
	if r1.VSec != r2.VSec || len(r1.State.Jobs) != len(r2.State.Jobs) {
		t.Fatalf("results diverge: %+v vs %+v", r1, r2)
	}
	for i := range r1.State.Jobs {
		if r1.State.Jobs[i].Verdict != r2.State.Jobs[i].Verdict || r1.State.Jobs[i].FinishedAt != r2.State.Jobs[i].FinishedAt {
			t.Fatalf("job %d diverges: %+v vs %+v", i, r1.State.Jobs[i], r2.State.Jobs[i])
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

// TestRunDistributedSingleJobUnchanged: a one-shot run is its job 0's run
// and nothing else — no event carries a job tag, and job 0's lifecycle is
// exactly one submit, start and done. The events in between are the
// `sim -threads 1 ph8` row of cmd/gridsat's golden file, which pins the
// whole log by hash.
func TestRunDistributedSingleJobUnchanged(t *testing.T) {
	fl := trace.NewFlight(nil)
	cfg := desConfig(gen.Pigeonhole(8), 10_000)
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", res.Outcome, res.Status)
	}
	if len(res.State.Jobs) != 1 || res.State.Jobs[0].ID != 0 {
		t.Fatalf("one-shot run's job rows %+v, want job 0 alone", res.State.Jobs)
	}
	var lifecycle []string
	for _, ev := range fl.Events() {
		if ev.Job != 0 {
			t.Fatalf("one-shot event carries a job tag: %+v", ev)
		}
		switch ev.Kind {
		case trace.FEvJobSubmit, trace.FEvJobStart, trace.FEvJobDone:
			lifecycle = append(lifecycle, ev.Kind)
		}
	}
	if !slices.Equal(lifecycle, []string{trace.FEvJobSubmit, trace.FEvJobStart, trace.FEvJobDone}) {
		t.Fatalf("job 0 lifecycle events %v, want one submit, start and done", lifecycle)
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
				if len(svc.State.Jobs) != 1 || len(shot.State.Jobs) != 1 {
					t.Fatalf("job rows: one-shot %+v, service %+v", shot.State.Jobs, svc.State.Jobs)
				}
				// The job's row is the same row, field by field, bar who it is.
				job, shotJob := svc.State.Jobs[0], shot.State.Jobs[0]
				if job.ID != 1 || shotJob.ID != 0 || job.Name != inst.name || shotJob.Name != "" {
					t.Fatalf("job identities: one-shot %d %q, service %d %q", shotJob.ID, shotJob.Name, job.ID, job.Name)
				}
				job.ID, job.Name = shotJob.ID, shotJob.Name
				if !reflect.DeepEqual(job, shotJob) {
					t.Fatalf("job rows differ:\none-shot %+v\n service %+v", shotJob, job)
				}
				if shot.Outcome != OutcomeSolved || svc.Outcome != OutcomeSolved || job.Verdict != shot.Status.String() {
					t.Fatalf("one-shot %v/%v, service %v/%q", shot.Outcome, shot.Status, svc.Outcome, job.Verdict)
				}
				if shot.Status == solver.StatusSAT && !modelSatisfies(inst.formula, job.Model) {
					t.Fatal("the service's model does not satisfy the formula")
				}
				type totals struct {
					vsec                       float64
					splits, shared, maxClients int
					props                      int64
				}
				a := totals{shot.VSec, shot.State.Splits, shot.State.Shared, shot.MaxClients, shot.TotalProps}
				b := totals{svc.VSec, svc.State.Splits, svc.State.Shared, svc.MaxClients, svc.TotalProps}
				if a != b || job.FinishedAt != shot.VSec {
					t.Fatalf("one-shot %+v\n service %+v (job finished at %v)", a, b, job.FinishedAt)
				}
				if !slices.Equal(shot.Timeline, svc.Timeline) {
					t.Fatalf("timelines differ: %d points vs %d", len(shot.Timeline), len(svc.Timeline))
				}
			})
		}
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
	cfg := desSchedConfig(jobs, 10_000)
	cfg.Grid.Hosts = cfg.Grid.Hosts[:1] // host 0 gets the client and the master: a zero-delay link
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("outcome %v (jobs: %+v)", res.Outcome, res.State.Jobs)
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
