package core

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/obs"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// populate fills m with nClients × nJobs of hand-built state in every
// shape the view has to count: jobs in all four lifecycle states with and
// without a root issued, clients in each of the five states, and one
// connection still mid-registration.
func populate(m *Master, nClients, nJobs int) {
	for id := 1; id <= nJobs; id++ {
		j := &masterJob{ID: id, Name: fmt.Sprintf("job-%d", id), Priority: 1 + id%3,
			State: JobState(id % 4), SubmittedAt: float64(id)}
		j.assigned = j.State != JobQueued || id%2 == 0
		if j.State != JobQueued {
			j.StartedAt, j.FirstAssignAt = j.SubmittedAt+1, j.SubmittedAt+2
		}
		if !j.State.Active() {
			j.FinishedAt = j.SubmittedAt + 10
		}
		if j.State == JobDone && id%2 == 0 {
			j.status = solver.StatusUNSAT
		}
		for d := 1; d <= id%4; d++ {
			j.prog.CloseSubproblem(d+1, float64(10*id+d))
		}
		j.subBacklog = make([]backlogSub, id%2)
		m.jobs[id] = j
		m.jobOrder = append(m.jobOrder, id)
	}
	for i := 0; i < nClients; i++ {
		id := m.connect()
		c := m.clients[id]
		if id == 2 {
			continue // mid-registration: no addr yet
		}
		c.addr, c.hostName = fmt.Sprintf("addr-%d", id), fmt.Sprintf("host-%d", id)
		if nJobs > 0 {
			c.job = 1 + id%nJobs
		}
		switch {
		case id%3 != 0 && id%5 == 0:
			c.state = stopping
		case id%3 != 0:
			c.state = busy
		case id%2 == 0 && id%5 == 0:
			c.state = parked
		case id%2 == 0:
			c.state = reserved
		}
		c.usedMem, c.dbLearnts, c.cube = int64(id)<<20, 100*id, make([]cnf.Lit, id%9)
		c.conf.rate = 37.5 * float64(id%11)
		c.conf.at, c.assignedAt = float64(id%4), float64(id%6)
		if id%4 != 0 {
			c.splitAt = c.assignedAt + 1 // asked: counts while busy and not stopping
		}
		c.agg = comm.SolverDeltas{Conflicts: int64(10 * id), Implications: int64(1000 * id),
			Imported: int64(id % 7), ImportedUseful: int64(id % 3)}
		m.clusterAgg.Add(c.agg)
	}
	m.splits, m.migrations, m.shared = 3*nClients, nJobs, 17*nClients
	m.sharedDropped = int64(nClients / 2)
	m.femit(trace.FEvent{Kind: trace.FEvRunStart})
}

// TestStateMatchesBruteForceRecount checks every tally of the one-pass
// builder against an independent recount over the raw tables, and that
// building a state is pure: twice in a row gives deep-equal values and
// records nothing in the flight log.
func TestStateMatchesBruteForceRecount(t *testing.T) {
	for _, size := range [][2]int{{0, 0}, {1, 1}, {3, 0}, {7, 3}, {40, 12}} {
		nClients, nJobs := size[0], size[1]
		t.Run(fmt.Sprintf("%dx%d", nClients, nJobs), func(t *testing.T) {
			h := newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)})
			h.now = 123
			m := h.m
			populate(m, nClients, nJobs)
			events := m.flight.Len()
			st := m.state()
			if again := m.state(); !reflect.DeepEqual(st, again) {
				t.Fatalf("two states in a row differ:\n%+v\n%+v", st, again)
			}
			if m.flight.Len() != events {
				t.Fatalf("building a state emitted %d flight events", m.flight.Len()-events)
			}

			want := ClusterState{WallSeconds: h.now, FlightEvents: events, ETASeconds: -1,
				Splits: 3 * nClients, Migrations: nJobs, Shared: 17 * nClients,
				SharedDropped: int64(nClients / 2)}
			ids := make([]int, 0, len(m.clients))
			for id := range m.clients {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			held, rate := map[int]int{}, map[int]float64{}
			var rows []int
			for _, id := range ids {
				c := m.clients[id]
				if c.addr == "" {
					continue
				}
				rows = append(rows, id)
				want.Registered++
				want.MemBytes += c.usedMem
				want.SolverDeltas.Add(c.agg)
				if c.splitAt > 0 && c.state == busy {
					want.Backlog++
				}
				if c.state == busy || c.state == stopping {
					want.Busy++
					want.ConflictRate += c.conf.rate
					rate[c.job] += c.conf.rate
				}
				if c.state == reserved || c.state == parked {
					want.Reserved++
				}
				if c.state != idle {
					held[c.job]++
				}
			}
			searching := 0
			for _, j := range m.jobs {
				want.SubBacklog += len(j.subBacklog)
				if j.State.Active() {
					want.Outstanding += held[j.ID] + len(j.subBacklog)
				}
				want.ClosedSubproblems += j.prog.Closed()
				want.MaxClosedDepth = max(want.MaxClosedDepth, j.prog.MaxDepth())
			}
			for _, id := range m.jobOrder {
				if j := m.jobs[id]; j.State.Active() && j.assigned {
					searching++
					want.Coverage += j.prog.Fraction()
					want.RatePerSec += j.prog.Rate()
				}
			}
			if searching > 0 {
				want.Coverage /= float64(searching)
				want.RatePerSec /= float64(searching)
				if want.RatePerSec > 0 {
					want.ETASeconds = (1 - want.Coverage) / want.RatePerSec
				}
			}
			want.Efficacy = efficacyOf(want.SolverDeltas)

			got := st
			got.Jobs, got.Clients = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("tallies:\n got %+v\nwant %+v", got, want)
			}
			if len(st.Clients) != len(rows) || len(st.Jobs) != nJobs {
				t.Fatalf("%d client rows and %d job rows, want %d and %d",
					len(st.Clients), len(st.Jobs), len(rows), nJobs)
			}
			for i, row := range st.Clients {
				c := m.clients[rows[i]]
				if row.ID != c.id || row.Host != c.hostName || row.Busy != (c.state == busy || c.state == stopping) ||
					row.Reserved != (c.state == reserved || c.state == parked) || row.MemBytes != c.usedMem ||
					row.DBLearnts != c.dbLearnts || row.Depth != len(c.cube) ||
					row.ConflictsPerSec != c.conf.rate || row.SolverDeltas != c.agg {
					t.Errorf("client row %d = %+v, client %+v", i, row, c)
				}
				if last := max(c.conf.at, c.assignedAt); last != 0 && row.LastHeartbeatSec != last ||
					last == 0 && row.LastHeartbeatSec != h.now {
					t.Errorf("client %d last heard at %v", c.id, row.LastHeartbeatSec)
				}
			}
			for i, row := range st.Jobs {
				j := m.jobs[m.jobOrder[i]]
				if row.ID != j.ID || row.State != j.State.String() || row.Clients != held[j.ID] ||
					row.ConflictRate != rate[j.ID] || row.Coverage != j.prog.Fraction() ||
					row.Units != j.prog.Units() || row.Searching != (j.State.Active() && j.assigned) {
					t.Errorf("job row %d = %+v (held %d, rate %v)", i, row, held[j.ID], rate[j.ID])
				}
				if one := m.jobSnapshot(j, false); !reflect.DeepEqual(one, row) {
					t.Errorf("GET /jobs/%d row %+v differs from the state's %+v", j.ID, one, row)
				}
			}
		})
	}
}

// serveJobAtHalf registers a client and submits a job; whichever idle
// client gets its root, the test splits it in two by hand — the other half
// queued at the master — and refutes one depth-1 half: the job is running
// at exactly 50 % coverage.
func serveJobAtHalf(h *harness, f *cnf.Formula) *masterJob {
	h.t.Helper()
	m := h.m
	h.register(1, 0)
	id := h.submit(f, 1)
	j := m.jobs[id]
	for _, c := range m.clients {
		if c.state == busy && c.job == id {
			m.handleSplitDone(c, comm.SplitDone{OK: true})
			c.cube = []cnf.Lit{cnf.PosLit(0)}
			j.subBacklog = append(j.subBacklog, backlogSub{job: id,
				sub: &solver.Subproblem{NumVars: f.NumVars, Cube: []cnf.Lit{cnf.NegLit(0)}}})
			m.handleSolved(c, comm.Solved{Status: solver.StatusUNSAT, Job: id})
			return j
		}
	}
	h.t.Fatalf("root of job %d not handed to an idle client", id)
	return nil
}

// TestClusterCoverageHasOneDefinition: cluster coverage is the mean
// coverage of the searching jobs, and the dashboard header and the ring's
// samples — which the watchdog's stall rule, GET /history and the dashboard
// trend line read — all carry that one number. They used to read 0 (under
// `gridsat serve`), the mean and the sum.
func TestClusterCoverageHasOneDefinition(t *testing.T) {
	h := newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)})
	m := h.m
	f := twoVars()
	serveJobAtHalf(h, f)

	check := func(want float64, bar string) {
		t.Helper()
		h.now++
		st := m.state()
		m.sampleTick() // same instant, same tables: the same state
		sampled := m.samples[len(m.samples)-1].Coverage
		if st.Coverage != want || sampled != want {
			t.Fatalf("coverage: state %v, newest sample %v; want %v in both",
				st.Coverage, sampled, want)
		}
		if head := strings.SplitN(RenderTop(st, nil, 80), "\n", 2)[0]; !strings.Contains(head, bar) {
			t.Fatalf("dashboard header %q lacks %q", head, bar)
		}
	}
	check(0.5, "=-")
	check(0.5, " 50.0%")

	// A second job at 50 % and a third that has not started: the mean is
	// over the two searching ones.
	serveJobAtHalf(h, f)
	h.submit(f, 1)
	check(0.5, " 50.0%")
	j2 := m.jobs[2]
	j2.prog.CloseSubproblem(2, h.now)
	check(0.625, " 62.5%")
}

// TestFinishedJobDropsItsInput: a terminal job keeps its verdict, model
// and snapshot but no longer pins its formula or its share-dedup window,
// and traffic that arrives for it afterwards is still harmless.
func TestFinishedJobDropsItsInput(t *testing.T) {
	h := newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)})
	m := h.m
	f := twoVars()
	c := h.register(1, 0)
	sat := h.submit(f, 1)
	model := cnf.NewAssignment(2)
	model.Set(cnf.LitFromDIMACS(1))
	model.Set(cnf.LitFromDIMACS(2))
	m.handleSplitDone(c, comm.SplitDone{OK: true})
	m.handleSolved(c, comm.Solved{Status: solver.StatusSAT, Model: model, Job: sat})
	cancelled := h.submit(f, 1)
	if err := m.cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{sat, cancelled} {
		if j := m.jobs[id]; j.State.Active() || j.Formula != nil || j.seenShared != nil {
			t.Fatalf("job %d: state %v, formula %v, dedup window %v", id, j.State, j.Formula, j.seenShared)
		}
	}
	res := m.jobSnapshot(m.jobs[sat], true)
	if res.Verdict != "SAT" || !slices.Equal(res.Model, []int{1, 2}) {
		t.Fatalf("result of the finished job: %+v", res)
	}
	// Late traffic from a client still tagged with the finished job (and
	// nothing in flight to it: the cancelled job's root was).
	c.job, c.state, c.unacked = sat, busy, nil
	m.handleShare(c, comm.ShareClauses{From: c.id, Job: sat, Clauses: []cnf.Clause{cnf.NewClause(1, 2)}})
	for _, late := range []comm.Message{
		comm.SplitDone{SplitID: 99, OK: true},
		comm.Solved{Status: solver.StatusSAT, Model: model, Job: sat},
	} {
		if done, err := m.handle(from(c.id, late)); done || err != nil {
			t.Fatalf("late %s: done=%v err=%v", late.Kind(), done, err)
		}
	}
	if again := m.jobSnapshot(m.jobs[sat], true); !reflect.DeepEqual(again, res) {
		t.Fatalf("late traffic changed the finished job: %+v", again)
	}
}

// endlessDIMACS streams comment lines for ever, counting what was read.
type endlessDIMACS struct{ read int64 }

func (e *endlessDIMACS) Read(p []byte) (int, error) {
	const line = "c filler filler filler filler filler filler filler filler\n"
	n := 0
	for n+len(line) <= len(p) {
		n += copy(p[n:], line)
	}
	if n == 0 {
		n = copy(p, line)
	}
	e.read += int64(n)
	return n, nil
}

// TestSubmitRefusesOverlongClause: a formula with a clause longer than the
// solver can hold is the submitter's error — 400 with the line — not a job
// every client would crash on.
func TestSubmitRefusesOverlongClause(t *testing.T) {
	m := newHarness(t, MasterConfig{}).m
	var body strings.Builder
	fmt.Fprintf(&body, "c one clause\np cnf %d 1\n", cnf.MaxClauseSize+1)
	for v := 1; v <= cnf.MaxClauseSize+1; v++ {
		body.WriteString(strconv.Itoa(v))
		body.WriteByte(' ')
	}
	body.WriteString("0\n")
	rec := httptest.NewRecorder()
	m.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body.String())))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"line": 3`) {
		t.Fatalf("overlong clause: HTTP %d %s, want 400 naming line 3", rec.Code, rec.Body)
	}
}

// TestSubmitBodyIsBounded: POST /jobs stops reading at maxSubmitBytes and
// answers 413 with the structured error, instead of parsing whatever
// arrives for as long as it arrives.
func TestSubmitBodyIsBounded(t *testing.T) {
	defer func(old int64) { maxSubmitBytes = old }(maxSubmitBytes)
	maxSubmitBytes = 4 << 10
	m := newHarness(t, MasterConfig{}).m

	body := &endlessDIMACS{}
	rec := httptest.NewRecorder()
	m.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/jobs", io.NopCloser(body)))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Fatalf("oversize submit: HTTP %d %s", rec.Code, rec.Body)
	}
	if body.read > maxSubmitBytes+128<<10 {
		t.Fatalf("read %d bytes of a body bounded at %d", body.read, maxSubmitBytes)
	}

	// Under the limit the body is parsed as before.
	rec = httptest.NewRecorder()
	m.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader("p cnf zero 3")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed small submit: HTTP %d, want 400", rec.Code)
	}
}

// seriesValue reads one counter or gauge series off a registry snapshot;
// ok is false when no series of that name carries every label.
func seriesValue(snap obs.Snapshot, name string, labels ...obs.Label) (v int64, ok bool) {
	for _, p := range append(snap.Counters, snap.Gauges...) {
		if p.Name != name {
			continue
		}
		match := true
		for _, l := range labels {
			match = match && p.Labels[l.Key] == l.Value
		}
		if match {
			return p.Value, true
		}
	}
	return 0, false
}

// TestPublishedBusyIsTheMasters: a client the master has put to work reads
// gridsat_client_busy 1 after the next sampler tick, as it does on /status,
// before it has sent a single heartbeat.
func TestPublishedBusyIsTheMasters(t *testing.T) {
	h := newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)})
	m := h.m
	c := h.register(1, 0)
	h.submit(twoVars(), 1)
	h.now++
	m.sampleTick()
	if st := m.state(); len(st.Clients) != 1 || !st.Clients[0].Busy {
		t.Fatalf("/status clients %+v, want the one client busy", st.Clients)
	}
	label := obs.L("client", strconv.Itoa(c.id))
	if v, ok := seriesValue(m.reg.Snapshot(), "gridsat_client_busy", label); !ok || v != 1 {
		t.Fatalf("gridsat_client_busy = %d (present %v), want 1 as on /status", v, ok)
	}
}

// TestPublishIsTheState: one sampler tick publishes every master and
// client series that has a ClusterState field equal to that field — after
// heartbeats that moved the counters since an earlier tick — and no series
// for a connection still mid-registration.
func TestPublishIsTheState(t *testing.T) {
	h := newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)})
	m := h.m
	populate(m, 7, 3)
	m.sampleTick()
	for _, id := range m.order {
		if m.clients[id].addr == "" {
			continue
		}
		h.now += 0.5
		m.handleStatusReport(m.clients[id], comm.StatusReport{MemBytes: int64(id) << 21,
			Learnts: 7 * id, Deltas: comm.SolverDeltas{Decisions: int64(id), Conflicts: 3,
				Propagations: 900, Learned: 2, ReclaimedBytes: 64, Imported: 5, ImportedUseful: 1}})
	}
	m.splits++
	m.shared += 4
	m.sharedDropped++
	h.now++
	m.sampleTick()
	st := m.state() // same instant, same tables: the tick's state
	snap := m.reg.Snapshot()

	for _, row := range []struct {
		name string
		want int64
	}{
		{"gridsat_master_registered_clients", int64(st.Registered)},
		{"gridsat_master_busy_clients", int64(st.Busy)},
		{"gridsat_master_reserved_clients", int64(st.Reserved)},
		{"gridsat_master_split_backlog", int64(st.Backlog)},
		{"gridsat_master_sub_backlog", int64(st.SubBacklog)},
		{"gridsat_master_outstanding_subproblems", int64(st.Outstanding)},
		{"gridsat_master_splits_total", int64(st.Splits)},
		{"gridsat_master_shared_clauses_total", int64(st.Shared)},
		{"gridsat_master_shared_dropped_total", st.SharedDropped},
	} {
		if got, ok := seriesValue(snap, row.name); !ok || got != row.want {
			t.Errorf("%s = %d (present %v), want %d", row.name, got, ok, row.want)
		}
	}
	clientSeries := []struct {
		name  string
		field func(ClientState) int64
	}{
		{"gridsat_client_mem_bytes", func(c ClientState) int64 { return c.MemBytes }},
		{"gridsat_client_learnts", func(c ClientState) int64 { return int64(c.DBLearnts) }},
		{"gridsat_client_busy", func(c ClientState) int64 {
			if c.Busy {
				return 1
			}
			return 0
		}},
		{"gridsat_client_path_depth", func(c ClientState) int64 { return int64(c.Depth) }},
		{"gridsat_client_decisions_total", func(c ClientState) int64 { return c.Decisions }},
		{"gridsat_client_conflicts_total", func(c ClientState) int64 { return c.Conflicts }},
		{"gridsat_client_propagations_total", func(c ClientState) int64 { return c.Propagations }},
		{"gridsat_client_learned_total", func(c ClientState) int64 { return c.Learned }},
		{"gridsat_client_arena_reclaimed_bytes_total", func(c ClientState) int64 { return c.ReclaimedBytes }},
		{"gridsat_client_imported_total", func(c ClientState) int64 { return c.Imported }},
		{"gridsat_client_imported_useful_total", func(c ClientState) int64 { return c.ImportedUseful }},
	}
	if len(st.Clients) != 6 {
		t.Fatalf("state has %d client rows, want 6", len(st.Clients))
	}
	for _, c := range st.Clients {
		label := obs.L("client", strconv.Itoa(c.ID))
		for _, s := range clientSeries {
			if got, ok := seriesValue(snap, s.name, label); !ok || got != s.field(c) {
				t.Errorf("%s{client=%d} = %d (present %v), want %d", s.name, c.ID, got, ok, s.field(c))
			}
		}
	}
	for _, s := range clientSeries {
		if _, ok := seriesValue(snap, s.name, obs.L("client", "2")); ok {
			t.Errorf("%s has a series for client 2, which never registered", s.name)
		}
	}
}
