package core

import (
	"slices"

	"gridsat/internal/comm"
	"gridsat/internal/solver"
)

// ClusterState is the master's one point-in-time view of itself: the
// pool, the backlog, who holds which job, the coverage estimate and the
// solver totals. Every introspection surface is a function of this value
// — GET /status serves it verbatim, GET /jobs is its Jobs, the sampler
// reduces one per tick to the Sample that the watchdog, GET /history and the
// dashboard sparklines read, a bundle's state.json freezes one, `gridsat
// top` renders one — and the last one, built by finishResult, is the body
// of the run record (Result.State, in both shells) and of -report's
// "state" key, so no two surfaces can disagree about what "busy" or
// "coverage" means.
type ClusterState struct {
	// WallSeconds is the master clock at the snapshot (wall seconds since
	// Run started, or virtual seconds under the DES).
	WallSeconds float64 `json:"wall_seconds"`
	// Verdict is a finished one-shot run's SAT/UNSAT, "" otherwise (every
	// job's own verdict is in its Jobs row).
	Verdict string `json:"verdict,omitempty"`

	// Pool tallies over registered clients. MemBytes sums their reported
	// arena sizes; ConflictRate sums the busy ones' conflicts/sec EWMAs.
	Registered   int     `json:"registered"`
	Busy         int     `json:"busy"`
	Reserved     int     `json:"reserved"`
	MemBytes     int64   `json:"mem_bytes"`
	ConflictRate float64 `json:"conflict_rate"`
	// Backlog counts unserved split requests, SubBacklog the subproblems the
	// master holds for the next idle client (roots, leftover cofactors, the
	// cubes of lost and migrated clients), Outstanding every live
	// subproblem (busy + in flight + queued), each summed over jobs.
	Backlog     int `json:"backlog"`
	SubBacklog  int `json:"sub_backlog"`
	Outstanding int `json:"outstanding"`
	Splits      int `json:"splits"`
	Migrations  int `json:"migrations"`
	Shared      int `json:"shared"`
	// SharedDropped counts best-effort clause-share messages discarded on
	// full client queues; FlightEvents is the flight recorder's length (0
	// without one). Both keep the spelling GET /status has always used:
	// encoding/json matches keys case-insensitively but not across an
	// underscore, and deployed readers decode into fields of these names.
	SharedDropped int64 `json:"SharedDropped"`
	FlightEvents  int   `json:"FlightEvents"`

	// Coverage is the mean refuted search-space fraction of the jobs listed
	// as Searching (a one-shot run has one job, so it is that job's), 0
	// with none; RatePerSec is the mean of their EWMA coverage rates;
	// ETASeconds is the time to full Coverage at that rate, -1 while
	// unknown. A finished job leaves the mean and keeps its final value in
	// its own row, so the state after a one-shot verdict reads 0 and -1.
	Coverage   float64 `json:"coverage"`
	RatePerSec float64 `json:"rate_per_sec"`
	ETASeconds float64 `json:"eta_seconds"`
	// ClosedSubproblems counts refuted subproblems over every job;
	// MaxClosedDepth is the deepest refuted guiding path.
	ClosedSubproblems int64 `json:"closed_subproblems"`
	MaxClosedDepth    int   `json:"max_closed_depth"`

	// SolverDeltas are the cluster-lifetime solver totals summed from every
	// heartbeat ever received (churn-proof: a departed client's work stays
	// counted); Efficacy is their share-usefulness view.
	comm.SolverDeltas
	Efficacy ShareEfficacy `json:"efficacy"`

	// Jobs are the per-job rows in submission order (one row, job 0, for a
	// one-shot run); Clients the registered clients sorted by ID, its key
	// absent when nil (no client registered, or rows dropped from an
	// ablation artifact).
	Jobs    []JobSnapshot `json:"jobs"`
	Clients []ClientState `json:"clients,omitzero"`
}

// ClientState is one registered client's row in a ClusterState: identity,
// what it is doing, where it is in the split tree, how fast it is going,
// and its solver totals aggregated from heartbeat deltas.
type ClientState struct {
	ID       int    `json:"id"`
	Host     string `json:"host,omitempty"`
	Busy     bool   `json:"busy"`
	Reserved bool   `json:"reserved"`
	// MemBytes and DBLearnts are the latest reported gauges; Depth is the
	// length of the cube of the client's current (or last) subproblem.
	MemBytes  int64 `json:"mem_bytes"`
	DBLearnts int   `json:"db_learnts"`
	Depth     int   `json:"depth"`
	// ConflictsPerSec is the EWMA conflict throughput from heartbeats;
	// Utilization is that relative to the cluster's fastest client (1 =
	// pacing the cluster, 0 = idle or stalled).
	ConflictsPerSec float64 `json:"conflicts_per_sec"`
	Utilization     float64 `json:"utilization"`
	// ImportUseRatio is the client's lifetime ImportedUseful / Imported.
	ImportUseRatio float64 `json:"import_use_ratio"`
	// Straggler marks a busy client whose conflict rate has fallen far
	// below the busy-pool median — a candidate for migration (§3.4).
	Straggler bool `json:"straggler,omitempty"`
	// LastHeartbeatSec is when the client was last heard from: its latest
	// heartbeat or its current assignment, whichever is later — idle
	// clients do not report, so one put back to work after a long idle
	// spell is not silent before its first report is even due.
	LastHeartbeatSec float64 `json:"last_heartbeat_sec"`
	// SolverDeltas are the client's counter totals summed from its
	// StatusReport deltas.
	comm.SolverDeltas
	// Workers is the client's latest per-worker portfolio breakdown
	// (absent for single-threaded clients).
	Workers []comm.WorkerReport `json:"workers,omitempty"`
}

// state builds the ClusterState: the tally's counts, then one row per
// client and one per job. It reads and never writes: no flight event, no
// mutation, so building one cannot perturb a deterministic run.
// Event-loop only.
func (m *Master) state() ClusterState {
	now := m.now()
	t := m.tally()
	st := ClusterState{
		WallSeconds:   now,
		Registered:    t.registered,
		Busy:          t.busy,
		Reserved:      t.reserved,
		MemBytes:      t.memBytes,
		ConflictRate:  t.confRate,
		Backlog:       t.splitRequests,
		Splits:        m.splits,
		Migrations:    m.migrations,
		Shared:        m.shared,
		SharedDropped: m.sharedDropped,
		ETASeconds:    -1,
		SolverDeltas:  m.clusterAgg,
		Efficacy:      efficacyOf(m.clusterAgg),
		Jobs:          make([]JobSnapshot, 0, len(m.jobOrder)),
		Clients:       make([]ClientState, 0, len(m.order)),
	}
	if m.result.Status != solver.StatusUnknown {
		st.Verdict = m.result.Status.String()
	}
	if m.flight != nil {
		st.FlightEvents = m.flight.Len()
	}

	for _, id := range m.order {
		c := m.clients[id]
		if c.addr == "" {
			continue // connection still mid-registration
		}
		row := ClientState{
			ID: c.id, Host: c.hostName, Busy: c.holds(), Reserved: c.state == reserved || c.state == parked,
			MemBytes: c.usedMem, DBLearnts: c.dbLearnts, Depth: len(c.cube),
			ConflictsPerSec:  c.conf.rate,
			ImportUseRatio:   efficacyOf(c.agg).UsefulRatio,
			LastHeartbeatSec: max(c.conf.at, c.assignedAt),
			SolverDeltas:     c.agg,
			Workers:          c.workers,
		}
		if row.LastHeartbeatSec == 0 {
			row.LastHeartbeatSec = now
		}
		st.Clients = append(st.Clients, row)
	}
	markStragglers(st.Clients)

	searching := 0
	for _, id := range m.jobOrder {
		j := m.jobs[id]
		row := j.snapshot(t.load(id))
		st.SubBacklog += len(j.subBacklog)
		st.Outstanding += t.outstanding(j)
		st.ClosedSubproblems += j.prog.Closed()
		st.MaxClosedDepth = max(st.MaxClosedDepth, j.prog.MaxDepth())
		if row.Searching {
			searching++
			st.Coverage += row.Coverage
			st.RatePerSec += j.prog.Rate()
		}
		st.Jobs = append(st.Jobs, row)
	}
	if searching > 0 {
		st.Coverage /= float64(searching)
		st.RatePerSec /= float64(searching)
		switch {
		case st.Coverage >= 1:
			st.ETASeconds = 0
		case st.RatePerSec > 0:
			st.ETASeconds = (1 - st.Coverage) / st.RatePerSec
		}
	}
	return st
}

// State returns the running master's ClusterState, built on its event
// loop so it is always consistent, or an error when the loop does not
// answer in time (a wedged or exited master).
func (m *Master) State() (ClusterState, error) {
	var st ClusterState
	err := m.apply(func() { st = m.state() })
	return st, err
}

// jobLoad is what a job takes from the client table: how many clients
// are down for it in any state but idle, and the summed conflict throughput
// of the ones that hold their cube.
type jobLoad struct {
	job  int
	held int
	rate float64
}

// poolTally is one reading of the client table: the pool counts and each
// job's load. Every count the master acts on or reports — gauges,
// ClusterState, the root's start, the UNSAT test — is taken from one, so "is
// this job exhausted" cannot disagree with "who holds this job".
type poolTally struct {
	registered, busy, reserved int
	splitRequests              int // clients whose split request is servable
	memBytes                   int64
	confRate                   float64   // summed over busy clients
	loads                      []jobLoad // one per job a client is down for
}

// load is what jobID takes from the table (zero when no client is on it).
func (t poolTally) load(jobID int) jobLoad {
	for _, l := range t.loads {
		if l.job == jobID {
			return l
		}
	}
	return jobLoad{}
}

// outstanding counts an active job's live subproblems: one per client down
// for it in any state but idle (a reserved one is an unsettled leg of a
// pendingSplits group: a cofactor in the making or on its way) and one per
// subproblem queued for it. A terminal job has none, whoever still acks.
func (t poolTally) outstanding(j *masterJob) int {
	if !j.State.Active() {
		return 0
	}
	return t.load(j.ID).held + len(j.subBacklog)
}

// tally walks the client table, the only walk that counts it. Clients
// still mid-registration hold nothing and are not counted. Event-loop only.
func (m *Master) tally() poolTally {
	var t poolTally
	for _, id := range m.order {
		c := m.clients[id]
		if c.addr == "" {
			continue
		}
		t.registered++
		t.memBytes += c.usedMem
		i := slices.IndexFunc(t.loads, func(l jobLoad) bool { return l.job == c.job })
		if i < 0 {
			i = len(t.loads)
			t.loads = append(t.loads, jobLoad{job: c.job})
		}
		l := &t.loads[i]
		switch c.state {
		case busy, stopping:
			t.busy++
			t.confRate += c.conf.rate
			l.rate += c.conf.rate
		case reserved, parked:
			t.reserved++
		}
		if c.wantsSplit() {
			t.splitRequests++
		}
		if c.state != idle {
			l.held++
		}
	}
	return t
}

// snapshot builds the job's external row around its load: its lifecycle
// timestamps and the SLO phases each pair of them spans (zero until the
// phase ends).
func (j *masterJob) snapshot(load jobLoad) JobSnapshot {
	snap := JobSnapshot{
		ID:            j.ID,
		Name:          j.Name,
		Priority:      j.Priority,
		State:         j.State.String(),
		Searching:     j.State.Active() && j.assigned,
		Clients:       load.held,
		SubmittedAt:   j.SubmittedAt,
		StartedAt:     j.StartedAt,
		FirstAssignAt: j.FirstAssignAt,
		FinishedAt:    j.FinishedAt,
		Coverage:      j.prog.Fraction(),
		Units:         j.prog.Units(),
		ConflictRate:  load.rate,
	}
	if j.StartedAt > 0 {
		snap.QueueWaitSec = j.StartedAt - j.SubmittedAt
	}
	if j.FinishedAt > 0 {
		if j.StartedAt > 0 {
			snap.SolveSec = j.FinishedAt - j.StartedAt
		}
		snap.TurnaroundSec = j.FinishedAt - j.SubmittedAt
	}
	switch {
	case j.State == JobCancelled:
		snap.Verdict = "CANCELLED"
	case j.State == JobDone || j.status != solver.StatusUnknown:
		snap.Verdict = j.status.String() // SAT, UNSAT, or UNKNOWN for a job that ended without one
	}
	return snap
}

// jobSnapshot builds one job's row alone, for GET /jobs/{id}: one walk of
// the client table for that job, never a whole ClusterState. withModel adds
// a SAT verdict's assignment. Event-loop only.
func (m *Master) jobSnapshot(j *masterJob, withModel bool) JobSnapshot {
	snap := j.snapshot(m.tally().load(j.ID))
	if withModel {
		snap.Model = j.modelLits()
	}
	return snap
}

// modelLits renders a SAT verdict's assignment as DIMACS literals (nil for
// any other verdict).
func (j *masterJob) modelLits() []int {
	if j.status != solver.StatusSAT {
		return nil
	}
	var lits []int
	for _, l := range j.model.TrueLits() {
		lits = append(lits, l.DIMACS())
	}
	return lits
}
