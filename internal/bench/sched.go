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
// ablation. A small cluster keeps the policies honest: with the full
// GrADS testbed every job gets idle hosts and no policy ever has to
// preempt, which would make the sweep a no-op.
const SchedWorkloadClients = 4

// PoissonWorkload generates an n-job arrival trace with exponential
// inter-arrival gaps of the given mean (the classic M/G/k open-arrival
// model batch schedulers are evaluated under). Jobs cycle through a
// small mixed pool — UNSAT pigeonhole refutations of two sizes and
// satisfiable random 3-SAT — with priorities cycling 1..3 so the
// priority policy has something to order by. Fixed (n, meanGap, seed)
// produce an identical trace, so every policy in a sweep sees the same
// workload and reruns are byte-reproducible.
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

// SchedResult is one scheduling policy's row in the ablation: the run
// plus the aggregate service metrics the policies trade off against
// each other.
type SchedResult struct {
	Policy             string  `json:"policy"`
	Jobs               int     `json:"jobs"`
	Solved             int     `json:"solved"`
	MakespanVSec       float64 `json:"makespan_vsec"`
	MeanTurnaroundVSec float64 `json:"mean_turnaround_vsec"`
	MaxTurnaroundVSec  float64 `json:"max_turnaround_vsec"`
	Preemptions        int     `json:"preemptions"`
	Result             core.SimResult
}

// AblationSched replays the same job trace under each scheduling policy
// on a deliberately small cluster (SchedWorkloadClients) and reports
// makespan, turnaround, and how many malleable preemptions each policy
// paid to get there. The interesting contrast: fifo minimizes
// preemptions but starves late arrivals; fair-share trades preemptions
// for turnaround; priority serves the priority-3 jobs first regardless.
func AblationSched(jobs []core.SimJob, opts Options) []SchedResult {
	var out []SchedResult
	for _, policy := range []string{"fifo", "fair-share", "priority"} {
		cfg := ablationConfig(nil, opts)
		// Unscaled budget: Scale shrinks per-instance budgets for CI
		// speed, but the sweep's CPU cost is already bounded by the small
		// workload, and a truncated run would corrupt every turnaround
		// number the sweep exists to compare.
		cfg.TimeoutVSec = ChallengeBudgetVSec
		cfg.Jobs = jobs
		cfg.SchedPolicy = policy
		cfg.MaxClients = SchedWorkloadClients
		cfg.MonitorPeriodVSec = 10
		res := core.RunDistributed(cfg)
		out = append(out, schedResult(policy, res))
		if opts.Progress != nil {
			opts.Progress(fmt.Sprintf("%-12s sched ablation done", policy))
		}
	}
	return out
}

func schedResult(policy string, res core.SimResult) SchedResult {
	r := SchedResult{
		Policy:       policy,
		Jobs:         len(res.Jobs),
		MakespanVSec: res.MakespanVSec,
		Preemptions:  res.Preemptions,
		Result:       res,
	}
	var sum float64
	for _, j := range res.Jobs {
		if j.Verdict == "SAT" || j.Verdict == "UNSAT" {
			r.Solved++
		}
		sum += j.TurnaroundVSec
		if j.TurnaroundVSec > r.MaxTurnaroundVSec {
			r.MaxTurnaroundVSec = j.TurnaroundVSec
		}
	}
	if len(res.Jobs) > 0 {
		r.MeanTurnaroundVSec = sum / float64(len(res.Jobs))
	}
	return r
}

// RenderSchedAblation formats the policy sweep as the EXPERIMENTS.md
// markdown table.
func RenderSchedAblation(results []SchedResult) string {
	var b strings.Builder
	b.WriteString("| policy | jobs | solved | makespan (vsec) | mean turnaround | max turnaround | preemptions |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, r := range results {
		fmt.Fprintf(&b, "| %s | %d | %d | %.1f | %.1f | %.1f | %d |\n",
			r.Policy, r.Jobs, r.Solved, r.MakespanVSec,
			r.MeanTurnaroundVSec, r.MaxTurnaroundVSec, r.Preemptions)
	}
	return b.String()
}
