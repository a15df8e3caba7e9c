package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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
// arrive through Submit (or the HTTP API in jobEndpoints), wait in the
// admission-controlled queue, and are served by idle clients in priority
// order (serveBacklog). Like GridSAT's master, the service never takes a
// client off running work: a job's clients come back when its subproblems
// end, and the job's end stops them. All scheduler state lives on the
// master's single event loop; the public methods below marshal onto it
// through masterEvent.apply closures.

// ErrNoSuchJob is returned for job IDs the service has never issued.
var ErrNoSuchJob = errors.New("core: no such job")

// ErrLoopUnavailable is returned when the master's event loop does not
// answer within 2 s: the master is wedged or gone, whatever was asked.
var ErrLoopUnavailable = errors.New("core: master event loop unavailable")

// apply runs fn on the master's event loop and waits for it to finish, or
// gives up with ErrLoopUnavailable when the loop does not answer. Given up,
// fn never runs: the loop and the deadline race for claimed, so a request
// answered 503 cannot take effect when the loop comes back.
func (m *Master) apply(fn func()) error {
	var claimed atomic.Bool
	done := make(chan struct{})
	ev := masterEvent{apply: func() bool {
		if claimed.CompareAndSwap(false, true) {
			fn()
			close(done)
		}
		return false
	}}
	deadline := time.After(2 * time.Second)
	select {
	case m.events <- ev:
		select {
		case <-done:
			return nil
		case <-deadline:
		}
	case <-deadline:
	}
	if claimed.CompareAndSwap(false, true) {
		return ErrLoopUnavailable
	}
	<-done // the loop claimed fn first and is running it
	return nil
}

// Submit queues a formula as a new job and returns its ID. Priority
// below 1 is clamped to 1; idle clients serve higher priorities first and
// equal ones in submission order. Fails when admission control rejects the
// job.
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
	m.serveBacklog()
	return m.nextJobID, nil
}

// admit queues f as job id, submitted now.
func (m *Master) admit(id int, name string, f *cnf.Formula, priority int) {
	m.jobs[id] = &masterJob{ID: id, Name: name, Priority: priority, Formula: f,
		State: JobQueued, SubmittedAt: m.now(), seenShared: newClauseWindow(shareWindowCap)}
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
	m.serveBacklog()
	return nil
}

// end makes the job terminal: its queued work is dropped, and so is its
// input — nothing reads a finished job's formula or share-dedup window,
// and a long-lived service must not pin every formula it ever solved. The
// verdict, model and snapshot fields stay.
func (j *masterJob) end(state JobState, now float64) {
	j.State, j.FinishedAt = state, now
	j.subBacklog = nil
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

// Jobs lists every job the service has seen, in submission order, or
// returns the error of a loop that does not answer in time.
func (m *Master) Jobs() ([]JobSnapshot, error) {
	st, err := m.State()
	return st.Jobs, err
}

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

// handleStopped folds a client's stop ack back into the pool. A stopped
// client holds nothing the master still counts on it: a terminal job's
// subproblem, a copy of a cube already requeued (clientLost), or one that
// moved to a better client (maybeMigrate). Event-loop only.
func (m *Master) handleStopped(c *masterClient, msg comm.Stopped) {
	if (c.state != stopping && c.state != parked) || msg.Seq != c.stopSeq {
		// Stale ack: a verdict beat the stop it answers (handleSolved freed
		// the client), and the client may since have been reassigned, which
		// freeing it here would orphan.
		return
	}
	// A stopping client holds a terminal job's subproblem, a parked one
	// nothing (see clientLost and maybeMigrate).
	j := m.jobOf(c)
	c.state = idle
	m.serveBacklog()
	m.checkExhausted(j)
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
		"turnaround", time.Duration((j.FinishedAt-j.SubmittedAt)*float64(time.Second)))
	if status == solver.StatusUnknown && m.cfg.BundleDir != "" {
		// A job that ends without a verdict (lost client, invalid model)
		// is exactly what a postmortem bundle is for.
		m.writeBundle(m.bundleSpec(fmt.Sprintf("job-%d-failed", j.ID), m.state()))
	}
	m.releaseJob(j)
	m.serveBacklog()
}

// releaseJob stops a terminal job's busy clients. Each gets StopWork and
// stays stopping master-side until its ack, so new work is never raced
// against a still-running solver. The job's transfers stay until each leg reports
// (handleSplitDone stops a recipient that started a payload of it) or its
// client is lost: a reserved recipient is not free while a payload may
// still reach it. Event-loop only.
func (m *Master) releaseJob(j *masterJob) {
	for _, id := range m.order {
		if c := m.clients[id]; c.job == j.ID && c.state == busy {
			m.stop(c)
		}
	}
}

// stop tells a client to abandon its subproblem: its job has ended, it is a
// copy of a cube the master has requeued (see clientLost), or it moves to a
// better client (maybeMigrate). A client that holds its cube keeps it until
// the ack (stopping); any other holds nothing and is parked.
func (m *Master) stop(c *masterClient) {
	if c.holds() {
		c.state = stopping
	} else {
		c.state = parked
	}
	c.stopSeq++
	m.send(c.id, comm.StopWork{Job: c.job, Seq: c.stopSeq})
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

// writeError answers err with code, or with 503 when err is
// ErrLoopUnavailable: a wedged event loop is the server's failure on every
// route, not a missing job, a finished one or a full queue.
func writeError(w http.ResponseWriter, code int, err error) {
	if errors.Is(err, ErrLoopUnavailable) {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// jobEndpoints are the job API routes, which NewMaster mounts on every
// introspection server — a one-shot master's too, where a submission is
// one more job of a service that ends with job 0:
//
//	POST /jobs?name=N&priority=P   submit a DIMACS CNF body; returns {"id": n}
//	GET  /jobs                     list all jobs (submission order)
//	GET  /jobs/{id}                one job's status
//	POST /jobs/{id}/cancel         cancel a queued or running job
//	GET  /jobs/{id}/result         status incl. a SAT model; 404 unknown id
//
// Each answers 503 when the event loop does not (ErrLoopUnavailable).
func (m *Master) jobEndpoints() []obs.Endpoint {
	return []obs.Endpoint{
		{Path: "POST /jobs", H: m.handleSubmit},
		{Path: "GET /jobs", H: m.handleList},
		{Path: "GET /jobs/{id}", H: m.handleJob(false)},
		{Path: "GET /jobs/{id}/result", H: m.handleJob(true)},
		{Path: "POST /jobs/{id}/cancel", H: m.handleCancel},
	}
}

func (m *Master) handleSubmit(w http.ResponseWriter, r *http.Request) {
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

func (m *Master) handleList(w http.ResponseWriter, _ *http.Request) {
	serveLoop(w, m.Jobs)
}

func (m *Master) handleJob(withModel bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
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

func (m *Master) handleCancel(w http.ResponseWriter, r *http.Request) {
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
