package core

import (
	"testing"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/solver"
)

// newChurnMaster builds a non-running master whose handlers the test
// drives directly — the event loop is single-threaded, so calling them
// from the test goroutine exercises exactly the production accounting.
func newChurnMaster(t *testing.T) *Master {
	t.Helper()
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	m, err := NewMaster(MasterConfig{
		Transport:  comm.NewInprocTransport(),
		ListenAddr: "churn-master",
		Formula:    f,
		Timeout:    time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func churnDeltas(conflicts, implications, imported, useful int64) comm.SolverDeltas {
	return comm.SolverDeltas{
		Conflicts:            conflicts,
		Implications:         implications,
		Imported:             imported,
		ImportedUseful:       useful,
		Decisions:            conflicts * 2,
		Propagations:         implications * 3,
		ImportedImplications: useful * 5,
		ImportedResolutions:  useful,
	}
}

// TestHeartbeatAggregationSurvivesChurn is the churn-accounting contract:
// heartbeat deltas are folded into the cluster totals at receipt, so
// clients joining, leaving, and being replaced can neither lose history
// (the departed client's work stays counted) nor double-count it (a
// rejoining client starts a fresh per-client aggregate, and its deltas
// are added exactly once).
func TestHeartbeatAggregationSurvivesChurn(t *testing.T) {
	m := newChurnMaster(t)

	join := func(id int) *masterClient {
		c := &masterClient{id: id, addr: "addr"}
		m.clients[id] = c
		m.order = append(m.order, id)
		return c
	}

	// Client 1 and 2 join and report work.
	c1, c2 := join(1), join(2)
	m.handleStatusReport(c1, comm.StatusReport{ClientID: 1, Busy: true, Depth: 2,
		Deltas: churnDeltas(100, 1000, 40, 10)})
	m.handleStatusReport(c2, comm.StatusReport{ClientID: 2, Busy: true, Depth: 3,
		Deltas: churnDeltas(50, 600, 20, 5)})

	snap := m.state()
	if snap.Conflicts != 150 || snap.Implications != 1600 {
		t.Fatalf("pre-churn totals: conflicts=%d implications=%d", snap.Conflicts, snap.Implications)
	}
	if snap.Efficacy.Imported != 60 || snap.Efficacy.ImportedUseful != 15 {
		t.Fatalf("pre-churn efficacy: %+v", snap.Efficacy)
	}

	// Client 1 goes idle and is lost. Its lifetime contribution must
	// survive the departure.
	c1.busy = false
	m.clientLost(c1, nil)
	if m.clients[1] != nil {
		t.Fatal("lost client still registered")
	}
	snap = m.state()
	if snap.Conflicts != 150 {
		t.Fatalf("conflicts after leave = %d, want 150 (departed work lost)", snap.Conflicts)
	}
	if snap.Registered != 1 {
		t.Fatalf("registered after leave = %d, want 1", snap.Registered)
	}

	// A replacement joins (new ID, as live rejoins get) and reports its
	// own work from a clean slate: added once, not merged into anything.
	c3 := join(3)
	m.handleStatusReport(c3, comm.StatusReport{ClientID: 3, Busy: true, Depth: 1,
		Deltas: churnDeltas(25, 200, 10, 4)})
	snap = m.state()
	if snap.Conflicts != 175 || snap.Implications != 1800 {
		t.Fatalf("post-recover totals: conflicts=%d implications=%d (double-count or loss)",
			snap.Conflicts, snap.Implications)
	}
	if snap.Efficacy.Imported != 70 || snap.Efficacy.ImportedUseful != 19 {
		t.Fatalf("post-recover efficacy: %+v", snap.Efficacy)
	}

	// The replacement's per-client view starts fresh — no inherited ratios.
	for _, row := range snap.Clients {
		if row.ID == 3 && row.ImportUseRatio != 0.4 {
			t.Fatalf("client 3 import-use ratio = %v, want 0.4 from its own deltas", row.ImportUseRatio)
		}
	}

	// Two more heartbeats from the same survivor accumulate, not replace.
	m.handleStatusReport(c2, comm.StatusReport{ClientID: 2, Busy: true, Depth: 3,
		Deltas: churnDeltas(5, 40, 0, 0)})
	m.handleStatusReport(c2, comm.StatusReport{ClientID: 2, Busy: true, Depth: 3,
		Deltas: churnDeltas(5, 40, 0, 0)})
	snap = m.state()
	if snap.Conflicts != 185 || snap.Implications != 1880 {
		t.Fatalf("survivor deltas misfolded: conflicts=%d implications=%d", snap.Conflicts, snap.Implications)
	}
	if c2.agg.Conflicts != 60 {
		t.Fatalf("per-client aggregate = %d, want 60", c2.agg.Conflicts)
	}
}

// from drives the master's one entry point with a message from client id.
func from(id int, msg comm.Message) masterEvent { return masterEvent{clientID: id, msg: msg} }

// TestStateCoverageFromSolved checks the master's coverage accounting
// through handle: refuting depth-1 halves adds exactly half the space each,
// the job is done UNSAT — and the one-shot run with it — at full coverage
// (after which it is no longer in the cluster mean), and depth reported by
// the client is what the estimator uses.
func TestStateCoverageFromSolved(t *testing.T) {
	m := newChurnMaster(t)
	m.started = time.Now()
	// Client 1 takes the root and splits it with client 2: two holders.
	for id := 1; id <= 2; id++ {
		m.connect()
		m.handle(from(id, comm.Register{Addr: "a", FreeMemBytes: 1 << 20, SpeedHint: 1}))
	}
	for _, ev := range []masterEvent{
		from(1, comm.SplitDone{ClientID: 1, OK: true}), // the root is accepted
		from(1, comm.SplitRequest{ClientID: 1}),        // reserves client 2
		from(1, comm.SplitDone{ClientID: 1, SplitID: 1, OK: true, Used: 1}),
		from(2, comm.SplitDone{ClientID: 2, SplitID: 1, OK: true}),
	} {
		if done, err := m.handle(ev); done || err != nil {
			t.Fatalf("splitting the root: %s gave done=%v err=%v", ev.msg.Kind(), done, err)
		}
	}
	if st := m.state(); st.Busy != 2 || st.Outstanding != 2 {
		t.Fatalf("after the split: %d busy, %d outstanding; want 2 and 2", st.Busy, st.Outstanding)
	}

	done, err := m.handle(from(1, comm.Solved{ClientID: 1, Status: solver.StatusUNSAT, Depth: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("run declared done with half the space outstanding")
	}
	snap := m.state()
	if got := snap.Jobs[0].Units; got != coverageFull/2 || snap.Coverage != 0.5 {
		t.Fatalf("after one depth-1 closure: %d units, coverage %v; want %d and 0.5", got, snap.Coverage, coverageFull/2)
	}
	if snap.Jobs[0].Verdict != "" {
		t.Fatalf("verdict %q before exhaustion", snap.Jobs[0].Verdict)
	}

	done, err = m.handle(from(2, comm.Solved{ClientID: 2, Status: solver.StatusUNSAT, Depth: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("exhausted space did not end the run")
	}
	m.finishResult()
	snap = m.state()
	if got := snap.Jobs[0].Units; got != coverageFull {
		t.Fatalf("final coverage %d units, want exactly %d", got, uint64(coverageFull))
	}
	if snap.Jobs[0].Verdict != "UNSAT" || snap.Jobs[0].State != "done" || snap.Verdict != "UNSAT" {
		t.Fatalf("job verdict %q state %q, run verdict %q; want UNSAT, done, UNSAT",
			snap.Jobs[0].Verdict, snap.Jobs[0].State, snap.Verdict)
	}
	if m.result.Status != solver.StatusUNSAT {
		t.Fatalf("result status %v, want UNSAT", m.result.Status)
	}
	// A finished job leaves the cluster mean, here as in a service: the
	// job's own row keeps its final coverage.
	if snap.Jobs[0].Searching || snap.Jobs[0].Coverage != 1.0 {
		t.Fatalf("finished job row: searching=%v coverage=%v; want false, 1", snap.Jobs[0].Searching, snap.Jobs[0].Coverage)
	}
	if snap.Coverage != 0 || snap.ETASeconds != -1 {
		t.Fatalf("cluster coverage %v eta %v with no job searching; want 0, -1", snap.Coverage, snap.ETASeconds)
	}
}

// TestRootNackIsRequeued is the master half of D2: a client that bounces
// the initial whole-problem assignment (SplitID 0) used to be left marked
// busy with the root subproblem gone — the job could never finish. The
// root now travels like any other master-held subproblem, so a nack puts
// it back on the backlog and the next idle client gets it.
func TestRootNackIsRequeued(t *testing.T) {
	m := newChurnMaster(t)
	for id := 1; id <= 2; id++ {
		m.connect()
		if _, err := m.handle(from(id, comm.Register{Addr: "a", FreeMemBytes: 1 << 20, SpeedHint: float64(3 - id)})); err != nil {
			t.Fatal(err)
		}
	}
	j := m.jobs[0]
	c1, c2 := m.clients[1], m.clients[2]
	if got := m.state().Outstanding; !c1.busy || c2.busy || got != 1 {
		t.Fatalf("root not handed to the first registrant: busy=%v,%v outstanding=%d", c1.busy, c2.busy, got)
	}
	// Client 1 bounces it, and its memory forecast has dropped under the
	// floor meanwhile, so the requeue must move on.
	m.cfg.MinMemBytes = 1 << 10
	m.noteForecast(1, c1.rank, 0)
	if done, _ := m.handle(from(1, comm.SplitDone{ClientID: 1, OK: false, Err: "already busy"})); done {
		t.Fatal("a bounced root ended the run")
	}
	if c1.busy {
		t.Fatal("nacking client still marked busy")
	}
	if got := m.state().Outstanding; !c2.busy || got != 1 || len(j.subBacklog) != 0 {
		t.Fatalf("root not reassigned: c2.busy=%v outstanding=%d queued=%d", c2.busy, got, len(j.subBacklog))
	}
	if done, _ := m.handle(from(2, comm.SplitDone{ClientID: 2, OK: true})); done {
		t.Fatal("root ack ended the run")
	}
	done, err := m.handle(from(2, comm.Solved{ClientID: 2, Status: solver.StatusUNSAT}))
	if err != nil || !done {
		t.Fatalf("refuting the requeued root: done=%v err=%v", done, err)
	}
	if got := j.prog.Units(); got != coverageFull {
		t.Fatalf("coverage %d units, want exactly %d", got, uint64(coverageFull))
	}
}

// TestWatchSampleCountsSilenceFromAssignment: idle clients do not
// heartbeat, so a client put back to work after a long idle spell must be
// judged from its assignment, not from the stale report before the gap —
// otherwise the heartbeat-gap rule fires the moment it goes busy.
func TestWatchSampleCountsSilenceFromAssignment(t *testing.T) {
	m := newChurnMaster(t)
	m.clients[1] = &masterClient{id: 1, addr: "a", busy: true, lastHBSec: 10, assignedAt: 100}
	m.order = []int{1}
	m.now = func() float64 { return 105 }
	st := m.state()
	s := st.sample()
	if got := s.Clients[0].LastHeartbeatSec; got != 100 {
		t.Fatalf("silence anchored at %v, want the assignment at 100", got)
	}
	if alerts := evalWatchdog(DefaultWatchdogConfig(), []Sample{s}); len(alerts) != 0 {
		t.Fatalf("freshly reassigned client flagged: %+v", alerts)
	}
}

// TestClientLostRequeuesSalvage drives the recovery path the DES shell
// feeds: an assignment the lost client never acknowledged goes back
// exactly once (whether or not the shell also caught it on the wire), a
// running subproblem comes back as its salvaged checkpoint, and the
// outstanding count — what UNSAT-by-exhaustion rests on — stays exact.
func TestClientLostRequeuesSalvage(t *testing.T) {
	m := newChurnMaster(t)
	join := func() *masterClient {
		id := m.connect()
		if _, err := m.handle(from(id, comm.Register{Addr: "a", FreeMemBytes: 1 << 20, SpeedHint: float64(10 - id)})); err != nil {
			t.Fatal(err)
		}
		return m.clients[id]
	}
	lose := func(c *masterClient, salvage ...*solver.Subproblem) {
		t.Helper()
		if done, err := m.handle(masterEvent{clientID: c.id, err: errCrashed, salvage: salvage}); done || err != nil {
			t.Fatalf("losing client %d: done=%v err=%v", c.id, done, err)
		}
	}
	c1, c2 := join(), join()
	j := m.jobs[0]
	root := m.pendingAssigns[1].sub
	if root == nil || !c1.busy {
		t.Fatal("root not in flight to client 1")
	}
	// Client 1 dies before acking; the payload was still on the wire, so
	// the shell's salvage names the very subproblem the master holds.
	lose(c1, root)
	if got := m.pendingAssigns[2]; got.sub != root || got.origin != fromRoot || !c2.busy {
		t.Fatalf("root not requeued to client 2 as a root: %+v", got)
	}
	if got := m.state().Outstanding; got != 1 || len(j.subBacklog) != 0 {
		t.Fatalf("outstanding=%d queued=%d after requeue, want 1 and 0 (double-counted salvage?)", got, len(j.subBacklog))
	}
	// Client 2 starts it, then dies mid-run leaving a checkpoint.
	m.handle(from(2, comm.SplitDone{ClientID: 2, OK: true}))
	c3 := join()
	cp := &solver.Subproblem{NumVars: 2, Depth: 0}
	lose(c2, cp)
	if got := m.pendingAssigns[3]; got.sub != cp || got.origin != fromCrash || got.donor != 2 {
		t.Fatalf("checkpoint not handed to client 3 as crash recovery: %+v", got)
	}
	if got := m.state().Outstanding; got != 1 {
		t.Fatalf("outstanding=%d, want 1", got)
	}
	m.handle(from(3, comm.SplitDone{ClientID: 3, OK: true}))
	if done, err := m.handle(from(3, comm.Solved{ClientID: 3, Status: solver.StatusUNSAT})); err != nil || !done {
		t.Fatalf("refuting the recovered subproblem: done=%v err=%v", done, err)
	}
	if m.jobs[0].status != solver.StatusUNSAT || c3.busy {
		t.Fatalf("job 0 status %v, client 3 busy=%v; want UNSAT and idle", m.jobs[0].status, c3.busy)
	}
}

// TestSplitBacklogSweepsStaleHeadAtLimitZero: a pass that can place
// nothing — no client is idle — must still drop the stale requests ahead of
// the first live one. An entry left behind keeps its old AssignedAt; if its
// client goes busy again before the next look, it splits the new subproblem
// ahead of clients that have run longer (what moved bart15 at flight event
// 6691 when a draft returned before sweeping).
func TestSplitBacklogSweepsStaleHeadAtLimitZero(t *testing.T) {
	now := 100.0
	m := bareMaster(t, &now)
	var sent []comm.Message
	m.send = func(_ int, msg comm.Message) { sent = append(sent, msg) }
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	id, err := m.submit("j", f, 1)
	if err != nil {
		t.Fatal(err)
	}
	j := m.jobs[id]
	join := func() *masterClient {
		c := m.clients[m.connect()]
		c.addr, c.busy, c.job, c.freeMem = "a", true, id, 1<<20
		return c
	}
	gone, live, other := join(), join(), join()
	gone.pendingSplit, live.pendingSplit = true, true
	j.backlog = []BacklogEntry{
		{ClientID: live.id, AssignedAt: 20, RequestedAt: 40},
		{ClientID: gone.id, AssignedAt: 10, RequestedAt: 30}, // longest-running: the head
	}
	m.forget(gone.id) // its subproblem ended and it left; every other client is busy
	m.serveSplitBacklog(j)
	if len(j.backlog) != 1 || j.backlog[0].ClientID != live.id {
		t.Fatalf("backlog after a pass with nothing idle: %+v, want only the live request", j.backlog)
	}
	if len(sent) != 0 || len(m.pendingSplits) != 0 || !live.pendingSplit {
		t.Fatalf("a pass with nothing idle served something: sent %v, transfers %d", sent, len(m.pendingSplits))
	}
	// With a client idle the live request is served to it.
	other.busy = false
	m.serveSplitBacklog(j)
	if len(j.backlog) != 0 || !other.reserved || len(sent) == 0 {
		t.Fatalf("with client %d idle: backlog %+v, reserved=%v, sent %v", other.id, j.backlog, other.reserved, sent)
	}
}
