package core

import (
	"slices"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

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
	m := newHarness(t, MasterConfig{Formula: twoVars()}).m

	join := func(id int) *masterClient {
		c := &masterClient{id: id, addr: "addr"}
		m.clients[id] = c
		m.order = append(m.order, id)
		return c
	}

	// Client 1 and 2 join and report work.
	c1, c2 := join(1), join(2)
	m.handleStatusReport(c1, comm.StatusReport{
		Deltas: churnDeltas(100, 1000, 40, 10)})
	m.handleStatusReport(c2, comm.StatusReport{
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
	c1.state = idle
	m.clientLost(c1)
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
	m.handleStatusReport(c3, comm.StatusReport{
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
	m.handleStatusReport(c2, comm.StatusReport{
		Deltas: churnDeltas(5, 40, 0, 0)})
	m.handleStatusReport(c2, comm.StatusReport{
		Deltas: churnDeltas(5, 40, 0, 0)})
	snap = m.state()
	if snap.Conflicts != 185 || snap.Implications != 1880 {
		t.Fatalf("survivor deltas misfolded: conflicts=%d implications=%d", snap.Conflicts, snap.Implications)
	}
	if c2.agg.Conflicts != 60 {
		t.Fatalf("per-client aggregate = %d, want 60", c2.agg.Conflicts)
	}
}

// TestStateCoverageFromSolved checks the master's coverage accounting
// through handle: refuting depth-1 halves adds exactly half the space each,
// the job is done UNSAT — and the one-shot run with it — at full coverage
// (after which it is no longer in the cluster mean), and the cubes the
// clients acknowledged are what the estimator closes.
func TestStateCoverageFromSolved(t *testing.T) {
	h := newHarness(t, MasterConfig{Formula: twoVars()})
	m := h.m
	// Client 1 takes the root and splits it with client 2: two holders.
	h.register(1, 0)
	h.register(1, 0)
	h.step(1, comm.SplitDone{OK: true})       // the root is accepted
	h.step(1, comm.SplitRequest{ClientID: 1}) // reserves client 2
	h.step(1, comm.SplitDone{SplitID: 1, OK: true, Cube: []cnf.Lit{cnf.PosLit(0)},
		Used: 1, Served: [][]cnf.Lit{{cnf.NegLit(0)}}})
	h.step(2, comm.SplitDone{SplitID: 1, OK: true, Cube: []cnf.Lit{cnf.NegLit(0)}})
	if st := m.state(); st.Busy != 2 || st.Outstanding != 2 {
		t.Fatalf("after the split: %d busy, %d outstanding; want 2 and 2", st.Busy, st.Outstanding)
	}

	done, err := m.handle(from(1, comm.Solved{Status: solver.StatusUNSAT}))
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

	done, err = m.handle(from(2, comm.Solved{Status: solver.StatusUNSAT}))
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
	h := newHarness(t, MasterConfig{Formula: twoVars()})
	m := h.m
	c1, c2 := h.register(2, 0), h.register(1, 0)
	j := m.jobs[0]
	if got := m.state().Outstanding; c1.state != busy || c2.state != idle || got != 1 {
		t.Fatalf("root not handed to the first registrant: states %v,%v outstanding=%d", c1.state, c2.state, got)
	}
	// Client 1 bounces it, and its memory forecast has dropped under the
	// floor meanwhile, so the requeue must move on.
	m.cfg.MinMemBytes = 1 << 10
	m.noteForecast(1, c1.rank, 0)
	h.step(1, comm.SplitDone{OK: false, Err: "already busy"}) // must not end the run
	if c1.state != idle {
		t.Fatal("nacking client still marked busy")
	}
	if got := m.state().Outstanding; c2.state != busy || got != 1 || len(j.subBacklog) != 0 {
		t.Fatalf("root not reassigned: c2.state=%v outstanding=%d queued=%d", c2.state, got, len(j.subBacklog))
	}
	h.step(2, comm.SplitDone{OK: true})
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
	h := newHarness(t, MasterConfig{Formula: twoVars()})
	m := h.m
	m.clients[1] = &masterClient{id: 1, addr: "a", state: busy, conf: ewma{at: 10}, assignment: assignment{assignedAt: 100}}
	m.order = []int{1}
	h.now = 105
	st := m.state()
	s := st.sample()
	if got := s.Clients[0].LastHeartbeatSec; got != 100 {
		t.Fatalf("silence anchored at %v, want the assignment at 100", got)
	}
	if alerts := evalWatchdog([]Sample{s}); len(alerts) != 0 {
		t.Fatalf("freshly reassigned client flagged: %+v", alerts)
	}
}

// TestClientLostRequeuesItsCube drives the one recovery path both shells
// take: an assignment the lost client never acknowledged goes back as it
// was; a lost recipient's cofactor goes back, as a leftover of its split,
// once the donor has said it shipped it; a lost client's running subproblem goes back as its cube; a
// donor lost before its SplitDone leaves the part of its cube no accepted
// recipient holds, and its unsettled recipient is stopped, not counted
// twice. The refutations then add up to the whole space, exactly.
func TestClientLostRequeuesItsCube(t *testing.T) {
	h := newHarness(t, MasterConfig{Formula: twoVars()})
	m := h.m
	// Client id registers at speed 10-id: the earlier, the better ranked.
	join := func(fanout int) *masterClient { return h.register(float64(9-m.nextID), fanout) }
	x, y := cnf.PosLit(0), cnf.PosLit(1)
	cube := func(lits ...cnf.Lit) []cnf.Lit { return lits }
	sent := func(c *masterClient) backlogSub {
		t.Helper()
		if c.unacked == nil || c.state != busy {
			t.Fatalf("nothing in flight to client %d", c.id)
		}
		return *c.unacked
	}
	ack := func(c *masterClient) {
		t.Helper()
		got := sent(c)
		h.step(c.id, comm.SplitDone{SplitID: got.splitID, OK: true, Cube: got.sub.Cube})
	}

	c1, c2 := join(1), join(1)
	root := sent(c1).sub
	h.lose(c1.id) // before it acked: the root goes to client 2, as a root
	if got := sent(c2); got.sub != root || got.origin != fromRoot || m.state().Outstanding != 1 {
		t.Fatalf("root not requeued to client 2 as it was: %+v", got)
	}
	ack(c2)

	// Client 2 splits x off to client 3, which is lost before it acks.
	c3 := join(1)
	h.step(c2.id, comm.SplitRequest{ClientID: c2.id})
	h.step(c2.id, comm.SplitDone{SplitID: 1, OK: true, Cube: cube(x), Used: 1, Served: [][]cnf.Lit{cube(x.Not())}})
	h.lose(c3.id)
	c4 := join(2)
	if got := sent(c4); got.origin != fromSplit || got.donor != c2.id || !slices.Equal(got.sub.Cube, cube(x.Not())) ||
		!slices.Equal(got.sub.Assumptions, got.sub.Cube) {
		t.Fatalf("the lost recipient's cofactor went to client 4 as %+v", got)
	}
	ack(c4)

	// Client 2 is lost mid-run: its cube goes to client 5.
	c5 := join(1)
	h.lose(c2.id)
	if got := sent(c5); got.origin != fromCrash || !slices.Equal(got.sub.Cube, cube(x)) {
		t.Fatalf("client 2's cube went to client 5 as %+v", got)
	}
	ack(c5)

	// Client 4 splits ¬x over y two ways; client 6 accepts its cofactor and
	// client 7's payload is still on the wire when client 4 is lost.
	c6, c7 := join(1), join(1)
	h.step(c4.id, comm.SplitRequest{ClientID: c4.id})
	h.step(c6.id, comm.SplitDone{SplitID: 2, OK: true, Cube: cube(x.Not(), y)})
	c8 := join(1)
	h.lose(c4.id)
	if got := sent(c8); got.origin != fromCrash || !slices.Equal(got.sub.Cube, cube(x.Not(), y.Not())) {
		t.Fatalf("client 4's remainder went to client 8 as %+v", got)
	}
	if c7.state != parked {
		t.Fatalf("client 7, whose cofactor of a lost donor may be on the wire: state %v, want parked", c7.state)
	}
	h.step(c7.id, comm.SplitDone{SplitID: 2, OK: true, Cube: cube(x.Not(), y.Not())})
	h.step(c7.id, comm.Stopped{Seq: c7.stopSeq})
	if c7.state != idle || m.state().Outstanding != 3 {
		t.Fatalf("client 7 state %v, outstanding %d; want a free client 7 and 3 cubes held",
			c7.state, m.state().Outstanding)
	}

	ack(c8)
	for _, c := range []*masterClient{c5, c6} {
		h.step(c.id, comm.Solved{Status: solver.StatusUNSAT})
	}
	if done, err := m.handle(from(c8.id, comm.Solved{Status: solver.StatusUNSAT})); err != nil || !done {
		t.Fatalf("refuting the last cube: done=%v err=%v", done, err)
	}
	if j := m.jobs[0]; j.status != solver.StatusUNSAT || j.prog.Units() != coverageFull {
		t.Fatalf("job 0 %v at %d units; want UNSAT at %d", j.status, j.prog.Units(), coverageFull)
	}
}

// lossBench is a service master with three registered clients (client 1
// the best ranked) and one job, whose root client 1 has acknowledged, and
// the cubes the test refuted.
type lossBench struct {
	*harness
	j       *masterJob
	refuted [][]cnf.Lit
}

func newLossBench(t *testing.T) *lossBench {
	b := &lossBench{harness: newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)})}
	for id := 1; id <= 3; id++ {
		b.register(float64(4-id), 1)
	}
	b.j = b.m.jobs[b.submit(twoVars(), 1)]
	b.settle()
	return b
}

// check asserts that the job's refuted, held and queued cubes partition the
// root and, unless a client is parked (counted, holding nothing), that the
// master counts one live subproblem for each cube it holds.
func (b *lossBench) check(when string) {
	b.t.Helper()
	cubes := held(b.m, b.j)
	if err := partition(append(slices.Clone(b.refuted), cubes...)); err != nil {
		b.t.Fatalf("%s: refuted %v and held %v: %v", when, b.refuted, cubes, err)
	}
	for _, c := range b.m.clients {
		if c.state == parked {
			return
		}
	}
	if got := b.m.tally().outstanding(b.j); got != len(cubes) {
		b.t.Fatalf("%s: %d outstanding, %d cubes held (%v)", when, got, len(cubes), cubes)
	}
}

// TestClientLostInEveryState loses a client in each state of the master's
// client table, reached through the master's own handlers: the job's
// refuted, held and queued cubes still partition the root, the master
// counts each of them once, and refuting them all ends the job UNSAT
// exactly once.
func TestClientLostInEveryState(t *testing.T) {
	x := cnf.PosLit(0)
	for _, tc := range []struct {
		state clientState
		reach func(*lossBench) int // returns the client in state
	}{
		{idle, func(*lossBench) int { return 2 }},
		{busy, func(*lossBench) int { return 1 }},
		{reserved, func(b *lossBench) int {
			// Client 2 is reserved for client 1's cofactor, which the donor
			// reports shipped before client 2 acknowledges it.
			b.step(1, comm.SplitRequest{ClientID: 1})
			b.step(1, comm.SplitDone{SplitID: 1, OK: true, Cube: []cnf.Lit{x}, Used: 1,
				Served: [][]cnf.Lit{{x.Not()}}})
			return 2
		}},
		{stopping, func(b *lossBench) int {
			// A second job's root goes to client 2, and the job is cancelled.
			other := b.submit(twoVars(), 1)
			b.settle()
			if err := b.m.cancel(other); err != nil {
				b.t.Fatal(err)
			}
			return 2
		}},
		{parked, func(b *lossBench) int {
			// Client 3 outranks client 1, whose root moves there.
			b.m.noteForecast(3, 1e6, 1<<20)
			b.m.maybeMigrate(2, 0)
			return 1
		}},
	} {
		t.Run(tc.state.String(), func(t *testing.T) {
			b := newLossBench(t)
			id := tc.reach(b)
			if got := b.m.clients[id].state; got != tc.state {
				t.Fatalf("client %d is %v, want %v", id, got, tc.state)
			}
			b.check("before the loss")
			b.lose(id)
			b.check("after the loss")
			for range 10 {
				b.settle()
				b.check("settled")
				if !b.j.State.Active() {
					break
				}
				for _, cid := range b.m.order {
					if c := b.m.clients[cid]; c.job == b.j.ID && c.state == busy {
						b.refuted = append(b.refuted, c.cube)
						b.step(cid, comm.Solved{Status: solver.StatusUNSAT, Job: b.j.ID})
						break
					}
				}
			}
			b.settle()
			if b.j.status != solver.StatusUNSAT {
				t.Fatalf("job %s %v after refuting %v", b.j.State, b.j.status, b.refuted)
			}
			if err := partition(b.refuted); err != nil {
				t.Fatalf("refuted %v: %v", b.refuted, err)
			}
			verdicts := 0
			for _, ev := range b.m.flight.Events() {
				if ev.Job == b.j.ID && (ev.Kind == trace.FEvVerdict || ev.Kind == trace.FEvJobDone) {
					verdicts++
				}
			}
			if verdicts != 2 {
				t.Fatalf("%d verdict and job-done events for job %d, want one each", verdicts, b.j.ID)
			}
		})
	}
}

// splitBench is a bare master with one job whose client table a test lays
// out by hand.
type splitBench struct {
	*harness
	j *masterJob
}

func newSplitBench(t *testing.T) *splitBench {
	b := &splitBench{harness: newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)})}
	b.j = b.m.jobs[b.submit(twoVars(), 1)]
	b.j.assigned = true // the busy clients below hold its search space
	return b
}

// busy adds a registered client that has worked on the job since
// assignedAt.
func (b *splitBench) busy(assignedAt float64) *masterClient {
	c := b.m.clients[b.m.connect()]
	c.addr, c.freeMem, c.state, c.job = "a", 1<<20, busy, b.j.ID
	c.assignment = assignment{assignedAt: assignedAt}
	return c
}

// ask delivers c's split request at time at.
func (b *splitBench) ask(c *masterClient, at float64) {
	b.t.Helper()
	b.stepAt(at, from(c.id, comm.SplitRequest{ClientID: c.id}))
}

// assigns returns the donors of the SplitAssigns in the outbox.
func (b *splitBench) assigns() []int {
	var donors []int
	for _, s := range b.outbox {
		if _, ok := s.msg.(comm.SplitAssign); ok {
			donors = append(donors, s.to)
		}
	}
	return donors
}

// idle registers a fresh client, which serves the split backlog, and
// returns the donors the master sent a SplitAssign meanwhile.
func (b *splitBench) idle() []int {
	b.t.Helper()
	b.outbox = nil
	b.register(1, 0)
	return b.assigns()
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
	if len(b.assigns()) != 0 || len(b.m.pendingSplits) != 0 {
		t.Fatalf("a pass with nothing idle served donors %v", b.assigns())
	}
	if got := b.m.state().Backlog; got != 2 {
		t.Fatalf("split backlog %d, want the 2 requests of clients still working", got)
	}
	// done refutes its subproblem: its request ends with it, and it is the
	// idle client the live request gets.
	b.stepAt(40, from(done.id, comm.Solved{Status: solver.StatusUNSAT, Job: b.j.ID}))
	if !slices.Equal(b.assigns(), []int{live.id}) || done.state != reserved {
		t.Fatalf("donors served %v, client %d %v; want donor %d with it reserved", b.assigns(), done.id, done.state, live.id)
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
	b.j.subBacklog = append(b.j.subBacklog, backlogSub{sub: &solver.Subproblem{NumVars: 2}, job: b.j.ID})
	b.stepAt(30, from(c1.id, comm.Solved{Status: solver.StatusUNSAT, Job: b.j.ID}))
	if c1.state != busy || c1.assignedAt != 30 {
		t.Fatalf("client %d %v assigned at %v, want the queued subproblem at 30", c1.id, c1.state, c1.assignedAt)
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
	h := newHarness(t, MasterConfig{})
	h.submit(twoVars(), 1)
	dilemma := h.register(1, 3).id
	h.step(dilemma, comm.SplitDone{OK: true}) // it took the root
	peer := h.register(1, 1).id
	for range 4 {
		h.register(1, 1)
	}
	h.step(dilemma, comm.SplitRequest{})
	h.step(peer, comm.SplitDone{SplitID: 1, OK: true}) // the first cofactor's recipient
	h.step(peer, comm.SplitRequest{})
	type split struct{ donor, peers int }
	var splits []split
	for _, s := range h.outbox {
		if a, ok := s.msg.(comm.SplitAssign); ok {
			splits = append(splits, split{s.to, len(a.Peers)})
		}
	}
	if want := []split{{dilemma, 3}, {peer, 1}}; !slices.Equal(splits, want) {
		t.Fatalf("splits (donor, recipients) %v, want %v", splits, want)
	}
}

// TestSolvedUnknownHandsTheCubeBack: a Solved without a verdict refutes
// nothing. The job keeps running with the client's cube — here the root —
// back at the head of its backlog, and ends on the verdict of whoever
// searches it next.
func TestSolvedUnknownHandsTheCubeBack(t *testing.T) {
	h := newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)})
	m := h.m
	id := h.submit(twoVars(), 1)
	j := m.jobs[id]
	c := h.register(1, 0)
	h.step(c.id, comm.SplitDone{OK: true}) // the root is accepted
	h.step(c.id, comm.Solved{Status: solver.StatusUnknown, Job: id})
	if j.State != JobRunning {
		t.Fatalf("job %s (%v) after a Solved without a verdict; want it running", j.State, j.status)
	}
	// The only idle client takes the root off the backlog again.
	got := c.unacked
	if got == nil || len(got.sub.Cube) != 0 || len(j.subBacklog) != 0 || m.state().Outstanding != 1 {
		t.Fatalf("root not handed out again: %+v, backlog %d", got, len(j.subBacklog))
	}
	h.step(c.id, comm.SplitDone{OK: true})
	model := cnf.NewAssignment(2)
	model.Set(cnf.PosLit(0))
	model.Set(cnf.PosLit(1))
	h.step(c.id, comm.Solved{Status: solver.StatusSAT, Model: model, Job: id})
	if j.State != JobDone || j.status != solver.StatusSAT {
		t.Fatalf("job %s (%v); want done SAT", j.State, j.status)
	}
}
