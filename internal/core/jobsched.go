package core

import (
	"fmt"
	"sort"

	"gridsat/internal/cnf"
)

// This file is the scheduler's vocabulary: the explicit Job entity
// (queued → running → preempted → done/cancelled), the SchedPolicy
// interface deciding how many clients each concurrently running job holds
// (malleable allocation, in Mallob's sense), and the admission control
// that bounds how much work the service accepts. The
// master behind `gridsat serve` and the one the DES steps through
// multi-job workloads are the same code, so a policy benchmarked
// deterministically in the DES is what schedules a real deployment.

// JobState is a job's lifecycle state.
type JobState int

// Job lifecycle: Queued jobs are admitted and waiting for their first
// client; Running jobs hold at least one client; Preempted jobs have
// started but currently hold none (the policy allocated their clients
// elsewhere — their partial work waits, checkpointed, in the backlog);
// Done and Cancelled are terminal.
const (
	JobQueued JobState = iota
	JobRunning
	JobPreempted
	JobDone
	JobCancelled
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobPreempted:
		return "preempted"
	case JobDone:
		return "done"
	case JobCancelled:
		return "cancelled"
	}
	return "unknown"
}

// Active reports whether the job still wants clients.
func (s JobState) Active() bool {
	return s == JobQueued || s == JobRunning || s == JobPreempted
}

// Job is one SAT instance moving through the scheduler. The solving
// bookkeeping (backlog, coverage, aggregates) lives with the runtime that
// owns the job; this is the shared identity and lifecycle record.
type Job struct {
	ID       int
	Name     string
	Priority int // >= 1; higher is more important under the priority policy
	Formula  *cnf.Formula
	State    JobState
	// Timestamps in the owning runtime's clock (wall seconds for the live
	// master, virtual seconds in the DES). FirstAssignAt is when the root
	// subproblem was first handed out — with StartedAt it decomposes the
	// queue-wait SLO from the assignment latency.
	SubmittedAt   float64
	StartedAt     float64
	FirstAssignAt float64
	FinishedAt    float64
	// Preemptions counts how many times a client was taken from this job
	// mid-subproblem (checkpoint → backlog → reassigned elsewhere).
	Preemptions int
}

// TurnaroundSec is submission-to-finish latency (0 while unfinished).
func (j *Job) TurnaroundSec() float64 {
	if j.State != JobDone && j.State != JobCancelled {
		return 0
	}
	return j.FinishedAt - j.SubmittedAt
}

// JobSnapshot is the JSON view of one job: a row of ClusterState.Jobs
// (and so of /status, /progress, GET /jobs and `gridsat top`) and the
// GET /jobs/{id} document.
type JobSnapshot struct {
	ID       int    `json:"id"`
	Name     string `json:"name,omitempty"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	// Searching is set while the job is active and its root subproblem has
	// been issued: the jobs whose coverage ClusterState.Coverage averages.
	Searching bool `json:"searching"`
	// Clients is how many clients the job currently holds.
	Clients       int     `json:"clients"`
	SubmittedAt   float64 `json:"submitted_at"`
	StartedAt     float64 `json:"started_at,omitempty"`
	FirstAssignAt float64 `json:"first_assign_at,omitempty"`
	FinishedAt    float64 `json:"finished_at,omitempty"`
	Preemptions   int     `json:"preemptions"`
	// Lifecycle SLO decomposition (seconds; zero until the phase ends):
	// queue wait (submit → start), solve (start → finish) and end-to-end
	// turnaround (submit → finish).
	QueueWaitSec  float64 `json:"queue_wait_sec,omitempty"`
	SolveSec      float64 `json:"solve_sec,omitempty"`
	TurnaroundSec float64 `json:"turnaround_sec,omitempty"`
	// Coverage is the refuted search-space fraction (the per-job progress
	// estimator) and Units the same total in exact fixed-point units of
	// 2^-62; ConflictRate is the job's aggregate conflicts/sec EWMA.
	Coverage     float64 `json:"coverage"`
	Units        uint64  `json:"units"`
	ConflictRate float64 `json:"conflict_rate"`
	// Verdict is "" until the job is done, then SAT/UNSAT/UNKNOWN (or
	// CANCELLED).
	Verdict string `json:"verdict,omitempty"`
	// Model carries a SAT verdict's satisfying assignment as DIMACS
	// literals, only on the /jobs/<id>/result view.
	Model []int `json:"model,omitempty"`
}

// SchedShare is one active job's claim presented to a SchedPolicy,
// in submission order (ID order — IDs are issued monotonically).
type SchedShare struct {
	JobID    int
	Priority int
	// Demand caps how many clients the job can use right now (its
	// outstanding subproblems + backlogged work + 1 for growth headroom);
	// 0 means unbounded.
	Demand int
}

// SchedPolicy decides the malleable allocation: how many of the cluster's
// clients each active job should hold. Implementations must be
// deterministic (pure functions of their inputs) — the DES replays them.
type SchedPolicy interface {
	Name() string
	// Allocate returns a client count per JobID. jobs arrive in
	// submission order and total is the number of allocatable clients;
	// the returned counts must sum to at most total. Jobs absent from the
	// map get zero.
	Allocate(jobs []SchedShare, total int) map[int]int
}

// ParseSchedPolicy maps a -sched-policy flag value to its engine.
// "" and "fifo" are run-to-completion submission order; "fair-share"
// splits clients evenly across active jobs; "priority" apportions
// proportionally to job priority.
func ParseSchedPolicy(name string) (SchedPolicy, error) {
	switch name {
	case "", "fifo":
		return fifoPolicy{}, nil
	case "fair-share":
		return fairSharePolicy{}, nil
	case "priority":
		return priorityPolicy{}, nil
	}
	return nil, fmt.Errorf("core: unknown scheduling policy %q (want fifo, fair-share or priority)", name)
}

// fifoPolicy runs jobs to completion in submission order: the oldest
// active job gets every client (bounded by its demand; leftovers spill to
// the next job, so a draining job does not idle the cluster).
type fifoPolicy struct{}

func (fifoPolicy) Name() string { return "fifo" }

func (fifoPolicy) Allocate(jobs []SchedShare, total int) map[int]int {
	out := make(map[int]int, len(jobs))
	for _, j := range jobs {
		if total <= 0 {
			break
		}
		n := total
		if j.Demand > 0 && j.Demand < n {
			n = j.Demand
		}
		out[j.JobID] = n
		total -= n
	}
	return out
}

// fairSharePolicy splits clients evenly across every active job,
// earliest-submitted jobs taking the remainder; a job's surplus above its
// demand redistributes to later jobs.
type fairSharePolicy struct{}

func (fairSharePolicy) Name() string { return "fair-share" }

func (fairSharePolicy) Allocate(jobs []SchedShare, total int) map[int]int {
	weights := make([]int, len(jobs))
	for i := range weights {
		weights[i] = 1
	}
	return apportion(jobs, weights, total)
}

// priorityPolicy apportions clients proportionally to job priority
// (largest-remainder method, earlier submission breaking ties), so a
// priority-10 job holds ~10× the clients of a priority-1 one but nobody
// starves outright while clients outnumber jobs.
type priorityPolicy struct{}

func (priorityPolicy) Name() string { return "priority" }

func (priorityPolicy) Allocate(jobs []SchedShare, total int) map[int]int {
	weights := make([]int, len(jobs))
	for i, j := range jobs {
		weights[i] = j.Priority
		if weights[i] < 1 {
			weights[i] = 1
		}
	}
	return apportion(jobs, weights, total)
}

// apportion distributes total clients proportionally to weights using the
// largest-remainder method, capped by per-job demand, with leftovers
// flowing to the earliest job that can still use them. Deterministic:
// ties break toward earlier submission.
func apportion(jobs []SchedShare, weights []int, total int) map[int]int {
	out := make(map[int]int, len(jobs))
	if total <= 0 || len(jobs) == 0 {
		return out
	}
	wsum := 0
	for _, w := range weights {
		wsum += w
	}
	type frac struct {
		idx int
		rem int // numerator of the fractional part, denominator wsum
	}
	given := 0
	fracs := make([]frac, 0, len(jobs))
	for i, j := range jobs {
		share := total * weights[i] / wsum
		if j.Demand > 0 && share > j.Demand {
			share = j.Demand
		}
		out[j.JobID] = share
		given += share
		fracs = append(fracs, frac{i, total * weights[i] % wsum})
	}
	// Hand out the remainder by descending fractional part, then
	// submission order; skip demand-capped jobs.
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for given < total {
		advanced := false
		for _, f := range fracs {
			if given >= total {
				break
			}
			j := jobs[f.idx]
			if j.Demand > 0 && out[j.JobID] >= j.Demand {
				continue
			}
			out[j.JobID]++
			given++
			advanced = true
		}
		if !advanced {
			break // every job demand-capped; leave the rest idle
		}
	}
	return out
}

// Admission is the service's admission-control policy: a submission is
// rejected when the active job count or the summed formula memory
// estimate would exceed the caps, so a queue of huge instances cannot
// wedge the master.
type Admission struct {
	// MaxActive caps admitted-but-unfinished jobs (queued + running +
	// preempted). 0 derives the cap from the cluster: one job per
	// registered client, minimum DefaultMaxActive.
	MaxActive int
	// MemBudgetBytes caps the summed FormulaMemBytes of active jobs.
	// 0 = no memory cap.
	MemBudgetBytes int64
}

// DefaultMaxActive is the floor for the client-count-derived active-job
// cap, so a service with no clients yet can still accept a small queue.
const DefaultMaxActive = 8

// Admit decides whether a job with formula footprint estBytes may join,
// given the current active job count, their summed footprint, and the
// registered client count.
func (a Admission) Admit(estBytes int64, active int, activeBytes int64, clients int) error {
	maxActive := a.MaxActive
	if maxActive == 0 {
		maxActive = clients
		if maxActive < DefaultMaxActive {
			maxActive = DefaultMaxActive
		}
	}
	if active >= maxActive {
		return fmt.Errorf("core: admission rejected: %d active jobs at the cap (%d)", active, maxActive)
	}
	if a.MemBudgetBytes > 0 && activeBytes+estBytes > a.MemBudgetBytes {
		return fmt.Errorf("core: admission rejected: formula needs ~%d bytes, budget has %d of %d left",
			estBytes, a.MemBudgetBytes-activeBytes, a.MemBudgetBytes)
	}
	return nil
}

// FormulaMemBytes estimates a formula's resident footprint at a client:
// the literal arrays plus per-clause and watcher overhead. Deliberately
// rough — admission control needs an order of magnitude, not an audit.
func FormulaMemBytes(f *cnf.Formula) int64 {
	if f == nil {
		return 0
	}
	lits := int64(0)
	for _, c := range f.Clauses {
		lits += int64(len(c))
	}
	return lits*8 + int64(len(f.Clauses))*32 + int64(f.NumVars)*64
}
