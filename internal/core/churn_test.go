package core

import (
	"slices"
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
	m.handleStatusReport(c1, comm.StatusReport{Depth: 2,
		Deltas: churnDeltas(100, 1000, 40, 10)})
	m.handleStatusReport(c2, comm.StatusReport{Depth: 3,
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
	m.handleStatusReport(c3, comm.StatusReport{Depth: 1,
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
	m.handleStatusReport(c2, comm.StatusReport{Depth: 3,
		Deltas: churnDeltas(5, 40, 0, 0)})
	m.handleStatusReport(c2, comm.StatusReport{Depth: 3,
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
		from(1, comm.SplitDone{OK: true}),       // the root is accepted
		from(1, comm.SplitRequest{ClientID: 1}), // reserves client 2
		from(1, comm.SplitDone{SplitID: 1, OK: true, Used: 1}),
		from(2, comm.SplitDone{SplitID: 1, OK: true}),
	} {
		if done, err := m.handle(ev); done || err != nil {
			t.Fatalf("splitting the root: %s gave done=%v err=%v", ev.msg.Kind(), done, err)
		}
	}
	if st := m.state(); st.Busy != 2 || st.Outstanding != 2 {
		t.Fatalf("after the split: %d busy, %d outstanding; want 2 and 2", st.Busy, st.Outstanding)
	}

	done, err := m.handle(from(1, comm.Solved{Status: solver.StatusUNSAT, Depth: 1}))
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

	done, err = m.handle(from(2, comm.Solved{Status: solver.StatusUNSAT, Depth: 1}))
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
	if done, _ := m.handle(from(1, comm.SplitDone{OK: false, Err: "already busy"})); done {
		t.Fatal("a bounced root ended the run")
	}
	if c1.busy {
		t.Fatal("nacking client still marked busy")
	}
	if got := m.state().Outstanding; !c2.busy || got != 1 || len(j.subBacklog) != 0 {
		t.Fatalf("root not reassigned: c2.busy=%v outstanding=%d queued=%d", c2.busy, got, len(j.subBacklog))
	}
	if done, _ := m.handle(from(2, comm.SplitDone{OK: true})); done {
		t.Fatal("root ack ended the run")
	}
	done, err := m.handle(from(2, comm.Solved{Status: solver.StatusUNSAT}))
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
	m.clients[1] = &masterClient{id: 1, addr: "a", busy: true, lastHBSec: 10, assignment: assignment{assignedAt: 100}}
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
	m.handle(from(2, comm.SplitDone{OK: true}))
	c3 := join()
	cp := &solver.Subproblem{NumVars: 2, Depth: 0}
	lose(c2, cp)
	if got := m.pendingAssigns[3]; got.sub != cp || got.origin != fromCrash || got.donor != 2 {
		t.Fatalf("checkpoint not handed to client 3 as crash recovery: %+v", got)
	}
	if got := m.state().Outstanding; got != 1 {
		t.Fatalf("outstanding=%d, want 1", got)
	}
	m.handle(from(3, comm.SplitDone{OK: true}))
	if done, err := m.handle(from(3, comm.Solved{Status: solver.StatusUNSAT})); err != nil || !done {
		t.Fatalf("refuting the recovered subproblem: done=%v err=%v", done, err)
	}
	if m.jobs[0].status != solver.StatusUNSAT || c3.busy {
		t.Fatalf("job 0 status %v, client 3 busy=%v; want UNSAT and idle", m.jobs[0].status, c3.busy)
	}
}

// splitBench is a bare master with one job whose client table a test lays
// out by hand, and the donor of every SplitAssign the master sends.
type splitBench struct {
	t       *testing.T
	m       *Master
	j       *masterJob
	now     float64
	assigns []int
}

func newSplitBench(t *testing.T) *splitBench {
	b := &splitBench{t: t, now: 1}
	b.m = bareMaster(t, &b.now)
	b.m.send = func(to int, msg comm.Message) {
		if _, ok := msg.(comm.SplitAssign); ok {
			b.assigns = append(b.assigns, to)
		}
	}
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	id, err := b.m.submit("j", f, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.j = b.m.jobs[id]
	b.j.assigned = true // the busy clients below hold its search space
	return b
}

// busy adds a registered client that has worked on the job since
// assignedAt.
func (b *splitBench) busy(assignedAt float64) *masterClient {
	c := b.m.clients[b.m.connect()]
	c.addr, c.freeMem, c.busy, c.job = "a", 1<<20, true, b.j.ID
	c.assignment = assignment{assignedAt: assignedAt}
	return c
}

// step hands the master one event at time at.
func (b *splitBench) step(at float64, ev masterEvent) {
	b.t.Helper()
	b.now = at
	if done, err := b.m.handle(ev); done || err != nil {
		b.t.Fatalf("client %d at %v: done=%v err=%v", ev.clientID, at, done, err)
	}
}

// ask delivers c's split request at time at.
func (b *splitBench) ask(c *masterClient, at float64) {
	b.t.Helper()
	b.step(at, from(c.id, comm.SplitRequest{ClientID: c.id}))
}

// idle registers a fresh client, which serves the split backlog, and
// returns the donors the master sent a SplitAssign meanwhile.
func (b *splitBench) idle() []int {
	b.t.Helper()
	b.assigns = nil
	id := b.m.connect()
	b.step(b.now, from(id, comm.Register{Addr: "a", FreeMemBytes: 1 << 20, SpeedHint: 1}))
	return b.assigns
}

// TestSplitBacklogServesLongestRunningFirst: §3.4's master gives "more
// resources to those parts of the search space that take the longest" —
// the requester assigned earliest is split first, then the one that asked
// earliest, then the lowest ID.
func TestSplitBacklogServesLongestRunningFirst(t *testing.T) {
	b := newSplitBench(t)
	c1, c2, c3, c4 := b.busy(50), b.busy(10), b.busy(10), b.busy(10)
	b.ask(c1, 60)
	b.ask(c3, 61)
	b.ask(c4, 61)
	b.ask(c2, 62)
	if got := b.m.state().Backlog; got != 4 {
		t.Fatalf("split backlog %d with nothing idle, want the 4 requests", got)
	}
	var order []int
	for range 4 {
		order = append(order, b.idle()...)
	}
	if want := []int{c3.id, c4.id, c2.id, c1.id}; !slices.Equal(order, want) {
		t.Fatalf("donors served %v, want %v", order, want)
	}
	if got := b.idle(); len(got) != 0 || b.m.state().Backlog != 0 {
		t.Fatalf("served requests served again: %v, backlog %d", got, b.m.state().Backlog)
	}
}

// TestSplitBacklogIsTheLiveRequests: the backlog is read off the client
// table, so a request whose client left or is being stopped is in nobody's
// way and counts for nothing. A pass with no idle client serves nothing and
// leaves the live requests standing; the next idle client goes to the
// longest-running of them.
func TestSplitBacklogIsTheLiveRequests(t *testing.T) {
	b := newSplitBench(t)
	gone, stopped, done, live := b.busy(10), b.busy(11), b.busy(12), b.busy(20)
	for _, c := range []*masterClient{gone, stopped, done, live} {
		b.ask(c, 30)
	}
	b.m.forget(gone.id)
	b.m.stop(stopped)
	b.m.serveBacklog()
	if len(b.assigns) != 0 || len(b.m.pendingSplits) != 0 {
		t.Fatalf("a pass with nothing idle served donors %v", b.assigns)
	}
	if got := b.m.state().Backlog; got != 2 {
		t.Fatalf("split backlog %d, want the 2 requests of clients still working", got)
	}
	// done refutes its subproblem: its request ends with it, and it is the
	// idle client the live request gets.
	b.step(40, from(done.id, comm.Solved{Status: solver.StatusUNSAT, Depth: 1, Job: b.j.ID}))
	if !slices.Equal(b.assigns, []int{live.id}) || !done.reserved {
		t.Fatalf("donors served %v, client %d reserved=%v; want donor %d with it", b.assigns, done.id, done.reserved, live.id)
	}
	if got := b.m.state().Backlog; got != 0 {
		t.Fatalf("split backlog %d after the live request was served", got)
	}
}

// TestSplitRequestEndsWithItsSubproblem: a client that refutes its
// subproblem while its split request waits, and takes the next one, is not
// split on the old request — it would split work nobody asked help with,
// ahead of clients that have run longer. When it asks again, it waits its
// turn by its new assignment.
func TestSplitRequestEndsWithItsSubproblem(t *testing.T) {
	b := newSplitBench(t)
	c1, c2, c3 := b.busy(10), b.busy(15), b.busy(20)
	b.ask(c1, 25)
	b.j.subBacklog = append(b.j.subBacklog, backlogSub{sub: &solver.Subproblem{NumVars: 2, Depth: 1}, job: b.j.ID})
	b.step(30, from(c1.id, comm.Solved{Status: solver.StatusUNSAT, Depth: 1, Job: b.j.ID}))
	if !c1.busy || c1.assignedAt != 30 {
		t.Fatalf("client %d busy=%v assigned at %v, want the queued subproblem at 30", c1.id, c1.busy, c1.assignedAt)
	}
	if got := b.m.state().Backlog; got != 0 {
		t.Fatalf("split backlog %d: the request outlived its subproblem", got)
	}
	b.ask(c2, 35)
	if got := b.idle(); !slices.Equal(got, []int{c2.id}) {
		t.Fatalf("donors served %v, want %d: the only request made for the work it is doing", got, c2.id)
	}
	b.ask(c1, 40)
	b.ask(c3, 45)
	if got := append(b.idle(), b.idle()...); !slices.Equal(got, []int{c3.id, c1.id}) {
		t.Fatalf("donors served %v, want %d (assigned at 20) before %d (assigned at 30)", got, c3.id, c1.id)
	}
}

// TestDonorStatesItsFanout: a split request reserves as many idle peers as
// its donor hands cofactors out, which the donor stated when it registered
// — the master is configured with no strategy, so a zero MasterConfig gives
// a dilemma donor three recipients and a first-decision donor one.
func TestDonorStatesItsFanout(t *testing.T) {
	type split struct{ donor, peers int }
	var splits []split
	m := newMaster(MasterConfig{}, func() float64 { return 1 },
		func(to int, msg comm.Message) {
			if a, ok := msg.(comm.SplitAssign); ok {
				splits = append(splits, split{to, len(a.Peers)})
			}
		}, func(BundleSpec) {})
	step := func(ev masterEvent) {
		t.Helper()
		if done, err := m.handle(ev); done || err != nil {
			t.Fatalf("client %d: done=%v err=%v", ev.clientID, done, err)
		}
	}
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	if _, err := m.submit("j", f, 1); err != nil {
		t.Fatal(err)
	}
	join := func(fanout int) int {
		id := m.connect()
		step(from(id, comm.Register{Addr: "a", FreeMemBytes: 1 << 20, SpeedHint: 1, Fanout: fanout}))
		return id
	}
	dilemma := join(3)
	step(from(dilemma, comm.SplitDone{OK: true})) // it took the root
	peer := join(1)
	for range 4 {
		join(1)
	}
	step(from(dilemma, comm.SplitRequest{}))
	step(from(peer, comm.SplitDone{SplitID: 1, OK: true})) // the first cofactor's recipient
	step(from(peer, comm.SplitRequest{}))
	if want := []split{{dilemma, 3}, {peer, 1}}; !slices.Equal(splits, want) {
		t.Fatalf("splits (donor, recipients) %v, want %v", splits, want)
	}
}
