package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/obs"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// This file is the job half of the master: the scheduling service. Jobs
// arrive through Submit (or the HTTP API in Endpoints), wait in the
// admission-controlled queue, and hold clients according to the configured
// SchedPolicy. Allocation is malleable in Mallob's sense — the scheduler
// moves clients between running jobs at runtime by preempting them
// (checkpoint via the §3.4 migration machinery) and resuming the
// checkpointed subproblem on whichever client the policy hands it to next.
// All scheduler state lives on the master's single event loop; the public
// methods below marshal onto it through masterEvent.apply closures.

// ErrNoSuchJob is returned for job IDs the service has never issued.
var ErrNoSuchJob = errors.New("core: no such job")

// apply runs fn on the master's event loop and waits for it to finish
// (or gives up when the loop is gone). fn must signal completion itself;
// done is closed by the caller-side wrapper.
func (m *Master) apply(fn func()) error {
	done := make(chan struct{})
	ev := masterEvent{apply: func() bool {
		fn()
		close(done)
		return false
	}}
	select {
	case m.events <- ev:
		select {
		case <-done:
			return nil
		case <-time.After(2 * time.Second):
		}
	case <-time.After(2 * time.Second):
	}
	return errors.New("core: master event loop unavailable")
}

// Submit queues a formula as a new job and returns its ID. Priority
// below 1 is clamped to 1; it only matters under the "priority" policy.
// Fails when admission control rejects the job.
func (m *Master) Submit(name string, f *cnf.Formula, priority int) (int, error) {
	if f == nil {
		return 0, errors.New("core: submit needs a formula")
	}
	var id int
	var err error
	if aerr := m.apply(func() { id, err = m.submit(name, f, priority) }); aerr != nil {
		return 0, aerr
	}
	return id, err
}

// submit is Submit's event-loop half.
func (m *Master) submit(name string, f *cnf.Formula, priority int) (int, error) {
	var active int
	var activeBytes int64
	for _, id := range m.jobOrder {
		if j := m.jobs[id]; j.State.Active() {
			active++
			activeBytes += FormulaMemBytes(j.Formula)
		}
	}
	if err := m.admission.Admit(FormulaMemBytes(f), active, activeBytes, m.tally().registered); err != nil {
		return 0, err
	}
	m.nextJobID++
	m.admit(m.nextJobID, name, f, max(1, priority))
	m.maybeRebalance()
	return m.nextJobID, nil
}

// admit queues f as job id, submitted now.
func (m *Master) admit(id int, name string, f *cnf.Formula, priority int) {
	m.jobs[id] = &masterJob{
		Job: &Job{ID: id, Name: name, Priority: priority, Formula: f,
			State: JobQueued, SubmittedAt: m.now()},
		seenShared: newClauseWindow(shareWindowCap),
	}
	m.jobOrder = append(m.jobOrder, id)
	m.femit(trace.FEvent{Kind: trace.FEvJobSubmit, Job: id, Detail: name, N: int64(priority)})
	m.log.Info("job submitted", "job", id, "name", name, "priority", priority,
		"vars", f.NumVars, "clauses", len(f.Clauses))
}

// CancelJob cancels a queued or running job; its clients are stopped and
// return to the pool. Cancelling a finished job is a no-op error.
func (m *Master) CancelJob(id int) error {
	var err error
	if aerr := m.apply(func() { err = m.cancel(id) }); aerr != nil {
		return aerr
	}
	return err
}

func (m *Master) cancel(id int) error {
	j := m.jobs[id]
	if j == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	if !j.State.Active() {
		return fmt.Errorf("core: job %d already %s", id, j.State)
	}
	j.end(JobCancelled, m.now())
	j.observeEnd(&m.met)
	m.femit(trace.FEvent{Kind: trace.FEvJobCancel, Job: j.ID})
	m.log.Info("job cancelled", "job", j.ID)
	if m.cfg.BundleDir != "" {
		m.writeBundle(m.bundleSpec(fmt.Sprintf("job-%d-cancelled", j.ID), m.state()))
	}
	m.releaseJob(j)
	m.maybeRebalance()
	return nil
}

// end makes the job terminal: its queued work is dropped, and so is its
// input — nothing reads a finished job's formula or share-dedup window,
// and a long-lived service must not pin every formula it ever solved. The
// verdict, model and snapshot fields stay.
func (j *masterJob) end(state JobState, now float64) {
	j.State, j.FinishedAt = state, now
	j.backlog, j.subBacklog = nil, nil
	j.Formula, j.seenShared = nil, nil
}

// observeEnd records the SLOs of a job whose FinishedAt was just stamped:
// turnaround always, solve time when it started and was not cancelled (a
// cancelled job has no verdict to time).
func (j *masterJob) observeEnd(met *masterMetrics) {
	if j.StartedAt > 0 && j.State != JobCancelled {
		met.solveLat.Observe(j.FinishedAt - j.StartedAt)
	}
	met.turnaround.Observe(j.FinishedAt - j.SubmittedAt)
}

// JobStatus returns one job's snapshot; withModel includes a SAT job's
// satisfying assignment (DIMACS literals).
func (m *Master) JobStatus(id int, withModel bool) (JobSnapshot, error) {
	var snap JobSnapshot
	var err error
	if aerr := m.apply(func() {
		j := m.jobs[id]
		if j == nil {
			err = fmt.Errorf("%w: %d", ErrNoSuchJob, id)
			return
		}
		snap = m.jobSnapshot(j, withModel)
	}); aerr != nil {
		return JobSnapshot{}, aerr
	}
	return snap, err
}

// Jobs lists every job the service has seen, in submission order.
func (m *Master) Jobs() []JobSnapshot { return m.State().Jobs }

// Shutdown stops the master: Run returns after the pool is told to shut
// down. Queued and running jobs end where they are (their snapshots
// remain queryable until the process exits).
func (m *Master) Shutdown() {
	m.draining.Store(true)
	ev := masterEvent{apply: func() bool {
		m.log.Info("service shutting down")
		return true
	}}
	select {
	case m.events <- ev:
	case <-time.After(2 * time.Second):
	}
}

// jobDemand estimates how many clients a job can put to work right now:
// its live subproblems (busy clients, in-flight transfers, queued
// cofactors) plus the recipients its queued split requests could serve,
// plus the root assignment if it never started. Demand feeds the policy
// so FIFO spillover and fair-share redistribution have something to cap
// against; it grows as the job's clients ask to split.
func (m *Master) jobDemand(t poolTally, j *masterJob) int {
	d := t.outstanding(j) + len(j.backlog)*max(1, m.fanout)
	if !j.assigned {
		d++
	}
	if d < 1 {
		d = 1
	}
	return d
}

// allocTargets asks the policy how many clients each active job should
// hold, given the registered pool. Event-loop only.
func (m *Master) allocTargets(t poolTally) map[int]int {
	var claims []SchedShare
	for _, id := range m.jobOrder {
		j := m.jobs[id]
		if !j.State.Active() {
			continue
		}
		claims = append(claims, SchedShare{JobID: j.ID, Priority: j.Priority,
			Demand: m.jobDemand(t, j)})
	}
	return m.policy.Allocate(claims, t.registered)
}

// maybeRebalance reviews the allocation: jobs over their policy target
// give up clients (checkpoint preemption), jobs under it get queued work
// placed on idle clients. Event-loop only.
func (m *Master) maybeRebalance() {
	t := m.tally() // asking a client to stop takes nothing off the table yet
	targets := m.allocTargets(t)
	for _, id := range m.jobOrder {
		j := m.jobs[id]
		if !j.State.Active() || !j.assigned {
			continue
		}
		if over := t.load(j.ID).held - targets[j.ID]; over > 0 {
			m.preemptClients(j, over)
		}
	}
	m.serveBacklog()
}

// preemptClients asks up to n of a job's busy clients to checkpoint and
// stop, newest assignment first (the least progress is lost), ties to
// the higher ID for determinism. Reserved and already-preempting clients
// are skipped — their transfers must settle first.
func (m *Master) preemptClients(j *masterJob, n int) {
	var cands []*masterClient
	for _, id := range m.order {
		if c := m.clients[id]; c.job == j.ID && c.busy && !c.preempting && !c.reserved {
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].assignedAt != cands[b].assignedAt {
			return cands[a].assignedAt > cands[b].assignedAt
		}
		return cands[a].id > cands[b].id
	})
	for i := 0; i < n && i < len(cands); i++ {
		c := cands[i]
		c.preempting = true
		c.stopSeq++
		m.log.Info("preempting client", "client", c.id, "job", j.ID)
		m.send(c.id, comm.Preempt{Job: j.ID, Seq: c.stopSeq})
	}
}

// handlePreempted folds a client's checkpoint ack back into the
// scheduler: the checkpointed subproblem joins its job's backlog (it is
// live search space, now the master's to hand out), and the client returns
// to the allocatable pool. A nil Sub is a plain stop ack: the answer to a
// StopWork, whose job is over. Event-loop only.
func (m *Master) handlePreempted(c *masterClient, msg comm.Preempted) {
	if !c.preempting || msg.Seq != c.stopSeq {
		// Stale ack: the preempt this answers was beaten by a verdict
		// (handleSolved cleared preempting and freed the client), and the
		// client may since have been reassigned. Clearing busy here would
		// orphan that new assignment, so the ack is dropped outright.
		return
	}
	// A preempting client is busy (only busy clients are stopped, and what
	// clears busy clears preempting), on the job the table says.
	c.busy = false
	c.preempting = false
	c.pendingSplit = false
	j := m.jobOf(c)
	if j != nil && j.State.Active() {
		if msg.Sub == nil {
			// It gave up a subproblem of a running job and returned nothing.
			// An honest client cannot — had its search ended first, FIFO puts
			// the Solved ahead and makes this ack stale — and the search space
			// is gone as surely as with a lost client.
			m.finishJob(j, solver.StatusUnknown, nil,
				fmt.Errorf("core: client %d acknowledged a preempt of job %d without its checkpoint", c.id, j.ID))
			return
		}
		j.Preemptions++
		pe := m.femit(trace.FEvent{Kind: trace.FEvJobPreempt, Client: c.id, Job: j.ID})
		j.subBacklog = append(j.subBacklog, backlogSub{sub: msg.Sub, donor: c.id,
			origin: fromPreempt, issueEv: pe, job: j.ID})
		if j.State == JobRunning && m.tally().load(j.ID).held == 0 {
			j.State = JobPreempted
		}
		m.log.Info("client preempted", "client", c.id, "job", j.ID,
			"depth", msg.Sub.Depth, "learnts", len(msg.Sub.Learnts))
	}
	m.maybeRebalance()
}

// finishJob records a job's verdict — or, with StatusUnknown, the cause of
// its ending without one — and releases everything it holds. Event-loop
// only.
func (m *Master) finishJob(j *masterJob, status solver.Status, model cnf.Assignment, cause error) {
	if !j.State.Active() {
		return
	}
	j.status, j.model, j.cause = status, model, cause
	j.end(JobDone, m.now())
	j.observeEnd(&m.met)
	m.femit(trace.FEvent{Kind: trace.FEvJobDone, Job: j.ID, Detail: status.String()})
	m.log.Info("job finished", "job", j.ID, "verdict", status,
		"turnaround", j.TurnaroundSec(), "preemptions", j.Preemptions)
	if status == solver.StatusUnknown && m.cfg.BundleDir != "" {
		// A job that ends without a verdict (lost client, invalid model)
		// is exactly what a postmortem bundle is for.
		m.writeBundle(m.bundleSpec(fmt.Sprintf("job-%d-failed", j.ID), m.state()))
	}
	m.releaseJob(j)
	m.maybeRebalance()
}

// releaseJob drops a terminal job's in-flight transfers and stops its
// clients: reserved recipients are released immediately; busy clients
// get StopWork and stay busy master-side until their idle ack, so new
// work is never raced against a still-running solver. Event-loop only.
func (m *Master) releaseJob(j *masterJob) {
	for _, id := range m.sortedSplitIDs() {
		g := m.pendingSplits[id]
		if g.job != j.ID {
			continue
		}
		for _, rid := range g.recipients {
			if g.settled[rid] {
				continue
			}
			if r := m.clients[rid]; r != nil {
				r.reserved = false
			}
		}
		delete(m.pendingSplits, id)
	}
	for cid, entry := range m.pendingAssigns {
		if entry.job == j.ID {
			delete(m.pendingAssigns, cid) // no send, no event: order-free
		}
	}
	for _, id := range m.order {
		c := m.clients[id]
		if c.job != j.ID || !c.busy || c.preempting {
			continue
		}
		c.preempting = true
		c.stopSeq++
		m.send(c.id, comm.StopWork{Job: j.ID, Seq: c.stopSeq})
	}
}

// Service wraps a master with its HTTP/JSON job API. Install the
// routes by passing Endpoints() through MasterConfig.ExtraEndpoints (the
// gridsat serve command does this), so the API shares the introspection
// server with /metrics, /status and /progress. Because ExtraEndpoints is
// consumed by NewMaster, the service supports late binding: build it
// unbound with NewService(nil), hand Endpoints() to the config, then
// Attach the constructed master. Requests landing in the gap get 503.
type Service struct {
	m atomic.Pointer[Master]
}

// NewService builds the HTTP facade; m may be nil if Attach follows.
func NewService(m *Master) *Service {
	s := &Service{}
	if m != nil {
		s.m.Store(m)
	}
	return s
}

// Attach binds (or rebinds) the master the endpoints serve.
func (s *Service) Attach(m *Master) { s.m.Store(m) }

// master fetches the bound master, answering 503 when there is none yet.
func (s *Service) master(w http.ResponseWriter) *Master {
	m := s.m.Load()
	if m == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("core: job service not attached yet"))
	}
	return m
}

// maxSubmitBytes bounds a POST /jobs body: what the wire allows the
// BaseProblem frame that ships the formula to a client — one that cannot be
// framed cannot be solved. A variable only so a test can shrink it.
var maxSubmitBytes int64 = comm.CapBulk

// submitResponse is the POST /jobs reply.
type submitResponse struct {
	ID int `json:"id"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Line is the 1-based parse position for malformed-DIMACS rejections
	// (omitted otherwise).
	Line int `json:"line,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// Endpoints returns the job API routes:
//
//	POST /jobs?name=N&priority=P   submit a DIMACS CNF body; returns {"id": n}
//	GET  /jobs                     list all jobs (submission order)
//	GET  /jobs/{id}                one job's status
//	POST /jobs/{id}/cancel         cancel a queued or running job
//	GET  /jobs/{id}/result         status incl. a SAT model; 404 unknown id
func (s *Service) Endpoints() []obs.Endpoint {
	return []obs.Endpoint{
		{Path: "POST /jobs", H: s.handleSubmit},
		{Path: "GET /jobs", H: s.handleList},
		{Path: "GET /jobs/{id}", H: s.handleJob(false)},
		{Path: "GET /jobs/{id}/result", H: s.handleJob(true)},
		{Path: "POST /jobs/{id}/cancel", H: s.handleCancel},
	}
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	m := s.master(w)
	if m == nil {
		return
	}
	f, err := cnf.ParseDIMACS(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("DIMACS body exceeds %d bytes", tooBig.Limit))
		return
	}
	if err != nil {
		resp := errorResponse{Error: fmt.Errorf("parse DIMACS body: %w", err).Error()}
		var pe *cnf.ParseError
		if errors.As(err, &pe) {
			resp.Line = pe.Line
		}
		writeJSON(w, http.StatusBadRequest, resp)
		return
	}
	priority := 1
	if p := r.URL.Query().Get("priority"); p != "" {
		priority, err = strconv.Atoi(p)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("priority: %w", err))
			return
		}
	}
	id, err := m.Submit(r.URL.Query().Get("name"), f, priority)
	if err != nil {
		// Admission rejections are the caller's problem, not the server's.
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ID: id})
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	m := s.master(w)
	if m == nil {
		return
	}
	writeJSON(w, http.StatusOK, m.Jobs())
}

func (s *Service) handleJob(withModel bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := s.master(w)
		if m == nil {
			return
		}
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		snap, err := m.JobStatus(id, withModel)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, snap)
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	m := s.master(w)
	if m == nil {
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := m.CancelJob(id); err != nil {
		if errors.Is(err, ErrNoSuchJob) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled"})
}
