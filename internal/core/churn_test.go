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
	if _, err := m.clientLost(c1, nil); err != nil {
		t.Fatal(err)
	}
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

// TestStateCoverageFromSolved checks the master's coverage
// accounting through handleSolved: refuting depth-1 halves adds exactly
// half the space each, the verdict flips at full coverage, and depth
// reported by the client is what the estimator uses.
func TestStateCoverageFromSolved(t *testing.T) {
	m := newChurnMaster(t)
	m.started = time.Now()
	m.jobs[0].assigned = true
	m.jobs[0].outstanding = 2

	c1 := &masterClient{id: 1, addr: "a", busy: true}
	c2 := &masterClient{id: 2, addr: "b", busy: true}
	m.clients[1], m.clients[2] = c1, c2
	m.order = []int{1, 2}

	done, err := m.handleSolved(c1, comm.Solved{ClientID: 1, Status: solver.StatusUNSAT, Depth: 1})
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
	if snap.Verdict != "" {
		t.Fatalf("verdict %q before exhaustion", snap.Verdict)
	}

	done, err = m.handleSolved(c2, comm.Solved{ClientID: 2, Status: solver.StatusUNSAT, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("exhausted space did not end the run")
	}
	snap = m.state()
	if got := snap.Jobs[0].Units; got != coverageFull || snap.Coverage != 1.0 {
		t.Fatalf("final coverage %v (%d units), want exactly 1.0", snap.Coverage, got)
	}
	if snap.Verdict != "UNSAT" {
		t.Fatalf("verdict %q, want UNSAT", snap.Verdict)
	}
	if snap.ETASeconds != 0 {
		t.Fatalf("ETA at exhaustion = %v, want 0", snap.ETASeconds)
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
		m.clients[id] = &masterClient{id: id, addr: "a", rank: float64(3 - id), sentBase: map[int]bool{}}
		m.order = append(m.order, id)
	}
	j := m.jobs[0]
	m.assignRoot(j)
	m.serveBacklog()
	c1, c2 := m.clients[1], m.clients[2]
	if !c1.busy || j.outstanding != 1 {
		t.Fatalf("root not handed to the best-ranked client: busy=%v outstanding=%d", c1.busy, j.outstanding)
	}
	// Client 1 bounces it; make it ineligible so the requeue must move on.
	c1.reserved = true
	if done := m.handleSplitDone(c1, comm.SplitDone{ClientID: 1, OK: false, Err: "already busy"}); done {
		t.Fatal("a bounced root ended the run")
	}
	if c1.busy {
		t.Fatal("nacking client still marked busy")
	}
	if !c2.busy || j.outstanding != 1 || len(j.subBacklog) != 0 {
		t.Fatalf("root not reassigned: c2.busy=%v outstanding=%d queued=%d", c2.busy, j.outstanding, len(j.subBacklog))
	}
	if done := m.handleSplitDone(c2, comm.SplitDone{ClientID: 2, OK: true}); done {
		t.Fatal("root ack ended the run")
	}
	done, err := m.handleSolved(c2, comm.Solved{ClientID: 2, Status: solver.StatusUNSAT})
	if err != nil || !done {
		t.Fatalf("refuting the requeued root: done=%v err=%v", done, err)
	}
	if got := m.jobs[0].prog.Units(); got != coverageFull {
		t.Fatalf("coverage %d units, want exactly %d", got, coverageFull)
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
	s := st.watch()
	if got := s.Clients[0].LastHeartbeatSec; got != 100 {
		t.Fatalf("silence anchored at %v, want the assignment at 100", got)
	}
	if alerts := evalWatchdog(DefaultWatchdogConfig(), []WatchSample{s}); len(alerts) != 0 {
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
	join := func(id int) *masterClient {
		c := &masterClient{id: id, addr: "a", rank: float64(10 - id), sentBase: map[int]bool{}}
		m.clients[id] = c
		m.order = append(m.order, id)
		return c
	}
	c1, c2 := join(1), join(2)
	j := m.jobs[0]
	m.assignRoot(j)
	m.serveBacklog()
	root := m.pendingAssigns[1].sub
	if root == nil || !c1.busy {
		t.Fatal("root not in flight to client 1")
	}
	// Client 1 dies before acking; the payload was still on the wire, so
	// the shell's salvage names the very subproblem the master holds.
	if done, err := m.clientLost(c1, []*solver.Subproblem{root}); done || err != nil {
		t.Fatalf("clientLost: done=%v err=%v", done, err)
	}
	if got := m.pendingAssigns[2]; got.sub != root || got.origin != fromRoot || !c2.busy {
		t.Fatalf("root not requeued to client 2 as a root: %+v", got)
	}
	if j.outstanding != 1 || len(j.subBacklog) != 0 {
		t.Fatalf("outstanding=%d queued=%d after requeue, want 1 and 0 (double-counted salvage?)", j.outstanding, len(j.subBacklog))
	}
	// Client 2 starts it, then dies mid-run leaving a checkpoint.
	m.handleSplitDone(c2, comm.SplitDone{ClientID: 2, OK: true})
	c3 := join(3)
	cp := &solver.Subproblem{NumVars: 2, Depth: 0}
	if done, err := m.clientLost(c2, []*solver.Subproblem{cp}); done || err != nil {
		t.Fatalf("clientLost: done=%v err=%v", done, err)
	}
	if got := m.pendingAssigns[3]; got.sub != cp || got.origin != fromCrash || got.donor != 2 {
		t.Fatalf("checkpoint not handed to client 3 as crash recovery: %+v", got)
	}
	if j.outstanding != 1 {
		t.Fatalf("outstanding=%d, want 1", j.outstanding)
	}
	m.handleSplitDone(c3, comm.SplitDone{ClientID: 3, OK: true})
	if done, err := m.handleSolved(c3, comm.Solved{ClientID: 3, Status: solver.StatusUNSAT}); err != nil || !done {
		t.Fatalf("refuting the recovered subproblem: done=%v err=%v", done, err)
	}
}
