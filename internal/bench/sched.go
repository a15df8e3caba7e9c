package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"gridsat/internal/cnf"
	"gridsat/internal/core"
	"gridsat/internal/gen"
)

// The sched ablation's workload and cluster.
const (
	// SchedWorkloadClients caps the simulated cluster. A small cluster
	// makes the jobs contend: with the full GrADS testbed every job gets
	// idle hosts and the order in which they are served never matters.
	SchedWorkloadClients = 4
	// SchedJobs is the length of the Poisson job trace.
	SchedJobs = 8
)

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

// schedBase replays a SchedJobs-long Poisson trace on a deliberately small
// cluster (SchedWorkloadClients): how the one scheduling rule — idle
// clients serve the highest-priority job first, nobody is taken off
// running work — fares when jobs contend. The instance is only a name.
func schedBase(_ gen.Instance, o Options) core.RunnerConfig {
	cfg := table1Config(nil, ChallengeBudgetVSec, o)
	// Unscaled budget: Scale shrinks per-instance budgets for CI speed, but
	// the run's CPU cost is already bounded by the small workload, and a
	// truncated run would corrupt every turnaround number it reports.
	cfg.TimeoutVSec = ChallengeBudgetVSec
	cfg.Jobs = PoissonWorkload(SchedJobs, o.SchedGapVSec, o.Seed)
	cfg.MaxClients = SchedWorkloadClients
	cfg.MonitorPeriodVSec = 10
	return cfg
}

// renderSched formats each run's service metrics, computed from its job
// rows, as the EXPERIMENTS.md markdown table: jobs solved, makespan (first
// submission to last finish) and turnaround.
func renderSched(rows []ArmRow, o Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ablation: scheduling a %d-job Poisson workload (mean gap %gvs, %d clients)\n",
		SchedJobs, o.SchedGapVSec, SchedWorkloadClients)
	b.WriteString("| jobs | solved | makespan (vsec) | mean turnaround | max turnaround |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range rows {
		jobs, solved := r.Result.State.Jobs, 0
		first, last, sum, worst := math.Inf(1), 0.0, 0.0, 0.0
		for _, j := range jobs {
			if j.Verdict == "SAT" || j.Verdict == "UNSAT" {
				solved++
			}
			sum += j.TurnaroundSec
			first, last, worst = min(first, j.SubmittedAt), max(last, j.FinishedAt), max(worst, j.TurnaroundSec)
		}
		fmt.Fprintf(&b, "| %d | %d | %.1f | %.1f | %.1f |\n",
			len(jobs), solved, max(0, last-first), sum/float64(max(1, len(jobs))), worst)
	}
	return b.String()
}
