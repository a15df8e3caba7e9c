package core

import (
	"fmt"

	"gridsat/internal/cnf"
)

// This file is the scheduler's vocabulary: the job lifecycle (queued →
// running → done/cancelled), a job's JSON row, and the admission control that
// bounds how much work the service accepts. Which job an idle client
// serves is Master.serveBacklog's one rule: higher priority first, then
// submission order, and nobody is taken off running work. The master
// behind `gridsat serve` and the one the DES steps through multi-job
// workloads are the same code, so the order benchmarked deterministically
// in the DES is what schedules a real deployment.

// JobState is a job's lifecycle state.
type JobState int

// Job lifecycle: Queued jobs are admitted and waiting for their first
// client; Running jobs have had one; Done and Cancelled are terminal.
const (
	JobQueued JobState = iota
	JobRunning
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
	case JobDone:
		return "done"
	case JobCancelled:
		return "cancelled"
	}
	return "unknown"
}

// Active reports whether the job still wants clients.
func (s JobState) Active() bool {
	return s == JobQueued || s == JobRunning
}

// JobSnapshot is the JSON view of one job: a row of ClusterState.Jobs
// (and so of /status, GET /jobs and `gridsat top`) and the
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
	// literals, only on the /jobs/<id>/result view and in a finished run's
	// final state (Result.State, in both shells).
	Model []int `json:"model,omitempty"`
}

// Admission is the service's admission-control policy: a submission is
// rejected when the active job count or the summed formula memory
// estimate would exceed the caps, so a queue of huge instances cannot
// wedge the master.
type Admission struct {
	// MaxActive caps admitted-but-unfinished jobs (queued + running). 0
	// derives the cap from the cluster: one job per registered client,
	// minimum DefaultMaxActive.
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
