package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"gridsat/internal/cnf"
	"gridsat/internal/core"
	"gridsat/internal/gen"
)

// SchedWorkloadClients caps the simulated cluster for the scheduler
// ablation. A small cluster makes the jobs contend: with the full GrADS
// testbed every job gets idle hosts and the order in which they are
// served never matters.
const SchedWorkloadClients = 4

// PoissonWorkload generates an n-job arrival trace with exponential
// inter-arrival gaps of the given mean (the classic M/G/k open-arrival
// model batch schedulers are evaluated under). Jobs cycle through a
// small mixed pool — UNSAT pigeonhole refutations of two sizes and
// satisfiable random 3-SAT — with priorities cycling 1..3 so the
// scheduler's priority order has something to order by. Fixed (n,
// meanGap, seed) produce an identical trace, so reruns are
// byte-reproducible.
func PoissonWorkload(n int, meanGapVSec float64, seed int64) []core.SimJob {
	rng := rand.New(rand.NewSource(seed))
	pool := []struct {
		name  string
		build func(i int) *cnf.Formula
	}{
		{"php7", func(int) *cnf.Formula { return gen.Pigeonhole(7) }},
		{"rand3sat", func(i int) *cnf.Formula { return gen.RandomKSAT(20, 70, 3, 11+int64(i)) }},
		{"php8", func(int) *cnf.Formula { return gen.Pigeonhole(8) }},
	}
	jobs := make([]core.SimJob, 0, n)
	at := 1.0
	for i := 0; i < n; i++ {
		p := pool[i%len(pool)]
		jobs = append(jobs, core.SimJob{
			Name:        fmt.Sprintf("%s-%d", p.name, i),
			Formula:     p.build(i),
			Priority:    1 + i%3,
			ArrivalVSec: at,
		})
		at += rng.ExpFloat64() * meanGapVSec
	}
	return jobs
}

// SchedResult is the scheduler's row in the ablation: the run plus the
// aggregate service metrics of the workload, computed from the run's job
// rows (Result.State.Jobs). MakespanVSec spans first submission to last
// finish.
type SchedResult struct {
	Jobs               int     `json:"jobs"`
	Solved             int     `json:"solved"`
	MakespanVSec       float64 `json:"makespan_vsec"`
	MeanTurnaroundVSec float64 `json:"mean_turnaround_vsec"`
	MaxTurnaroundVSec  float64 `json:"max_turnaround_vsec"`
	Result             core.SimResult
}

// AblationSched replays a job trace on a deliberately small cluster
// (SchedWorkloadClients) and reports makespan and turnaround: how the one
// scheduling rule — idle clients serve the highest-priority job first,
// nobody is taken off running work — fares when jobs contend.
func AblationSched(jobs []core.SimJob, opts Options) SchedResult {
	cfg := table1Config(nil, ChallengeBudgetVSec, opts)
	// Unscaled budget: Scale shrinks per-instance budgets for CI speed, but
	// the run's CPU cost is already bounded by the small workload, and a
	// truncated run would corrupt every turnaround number it reports.
	cfg.TimeoutVSec = ChallengeBudgetVSec
	cfg.Jobs = jobs
	cfg.MaxClients = SchedWorkloadClients
	cfg.MonitorPeriodVSec = 10
	res := core.RunDistributed(cfg)
	rows := res.State.Jobs
	r := SchedResult{Jobs: len(rows), Result: res}
	firstSubmit, lastFinish, sum := -1.0, 0.0, 0.0
	for _, j := range rows {
		if j.Verdict == "SAT" || j.Verdict == "UNSAT" {
			r.Solved++
		}
		sum += j.TurnaroundSec
		r.MaxTurnaroundVSec = max(r.MaxTurnaroundVSec, j.TurnaroundSec)
		if firstSubmit < 0 || j.SubmittedAt < firstSubmit {
			firstSubmit = j.SubmittedAt
		}
		lastFinish = max(lastFinish, j.FinishedAt)
	}
	if firstSubmit >= 0 && lastFinish > firstSubmit {
		r.MakespanVSec = lastFinish - firstSubmit
	}
	if len(rows) > 0 {
		r.MeanTurnaroundVSec = sum / float64(len(rows))
	}
	if opts.Progress != nil {
		opts.Progress("sched ablation done")
	}
	return r
}

// RenderSchedAblation formats the run as the EXPERIMENTS.md markdown
// table.
func RenderSchedAblation(r SchedResult) string {
	var b strings.Builder
	b.WriteString("| jobs | solved | makespan (vsec) | mean turnaround | max turnaround |\n")
	b.WriteString("|---|---|---|---|---|\n")
	fmt.Fprintf(&b, "| %d | %d | %.1f | %.1f | %.1f |\n",
		r.Jobs, r.Solved, r.MakespanVSec, r.MeanTurnaroundVSec, r.MaxTurnaroundVSec)
	return b.String()
}
