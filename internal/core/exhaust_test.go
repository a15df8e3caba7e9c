package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// The world below is the master's environment written a second time:
// scripted clients that hold cubes and split them, lose them, bounce them
// and refute them. The master is driven through handle alone.
//
// What the master sends is acted on at once (a split is made, a payload
// started or bounced); what a client sends, a recipient's accept included,
// waits in its FIFO uplink until the schedule delivers it. So the master
// always acts on old news — a verdict, a loss or an ack it has not seen
// yet — which is where every accounting defect so far has lived.

// exhaustVars is the formula's width, and with exhaustMaxDepth bounds the
// tree: a donor that deep has nothing to split on.
const (
	exhaustVars     = 64
	exhaustMaxDepth = 40
)

// upMsg is one event on a client's uplink. refutes, on an UNSAT verdict,
// is the cube the client searched.
type upMsg struct {
	ev      masterEvent
	effect  func()
	refutes []cnf.Lit
}

type scriptedClient struct {
	id   int
	sub  *solver.Subproblem // what it is searching, nil when idle
	job  int                // of the last subproblem it was sent, started or not
	up   []upMsg
	gone bool // lost; the master learns when the uplink drains to the marker
}

type exhaustWorld struct {
	*harness
	rng     *rand.Rand
	formula *cnf.Formula
	hostile bool // scripts may drop a subproblem they hold
	crashy  bool // a donor may be lost between its payloads and its SplitDone
	fanout  int  // every client's split batch, as its Register states it
	clients map[int]*scriptedClient
	ids     []int // every client ever connected, in order
	// refuted[job] lists the cubes the master credited refutations to,
	// each checked against the cube its client searched; dropped[job] names
	// the client that lost one of the job's subproblems for good.
	refuted map[int][][]cnf.Lit
	dropped map[int]int
	jobs    []int
	did     map[string]int
	label   string // the schedule, for failure messages
}

func newExhaustWorld(t *testing.T, seed int64, strategy string, hostile bool) *exhaustWorld {
	w := &exhaustWorld{harness: newHarness(t, MasterConfig{Flight: trace.NewFlight(nil)}),
		rng: rand.New(rand.NewSource(seed)), hostile: hostile,
		clients: map[int]*scriptedClient{}, refuted: map[int][][]cnf.Lit{},
		dropped: map[int]int{}, did: map[string]int{}}
	w.formula = cnf.NewFormula(exhaustVars)
	w.formula.Add(1, 2)
	st, err := solver.ParseStrategy(strategy)
	if err != nil {
		t.Fatal(err)
	}
	w.fanout = st.MaxBatch()
	return w
}

// handle hands the master one event, applies what its arrival means, lets
// the clients act on everything the master sent, and checks.
func (w *exhaustWorld) handle(what string, ev masterEvent, effect func()) {
	w.t.Helper()
	w.did[what]++
	w.stepAt(w.now+0.25, ev)
	if effect != nil {
		effect()
	}
	for len(w.outbox) > 0 {
		s := w.outbox[0]
		w.outbox = w.outbox[1:]
		w.receive(w.clients[s.to], s.msg)
	}
	w.check(what)
}

func (w *exhaustWorld) apply(what string, fn func()) {
	w.t.Helper()
	w.handle(what, masterEvent{apply: func() bool { fn(); return false }}, nil)
}

// check is the safety property, after every step: an active job's refuted
// cubes and the cubes the master holds for it partition the root, with at
// least one client or queued entry still counted; an UNSAT job's refuted
// cubes alone do; and a job ends UNKNOWN only when a client dropped a
// subproblem, naming it.
func (w *exhaustWorld) check(what string) {
	w.t.Helper()
	tally := w.m.tally()
	for _, id := range w.jobs {
		j := w.m.jobs[id]
		refuted := w.refuted[id]
		switch {
		case j.State.Active() && j.assigned:
			if err := partition(append(slices.Clone(refuted), held(w.m, j)...)); err != nil {
				w.fail("after %s: job %d's refuted and held cubes: %v", what, id, err)
			}
			if tally.outstanding(j) == 0 {
				w.fail("after %s: job %d counts nothing outstanding and is still %s", what, id, j.State)
			}
		case j.status == solver.StatusUNSAT:
			if err := partition(refuted); err != nil {
				w.fail("after %s: job %d is UNSAT, but its refuted cubes: %v", what, id, err)
			}
		case j.State == JobDone && j.status == solver.StatusUnknown:
			by, lost := w.dropped[id]
			if !lost || j.cause == nil || !strings.Contains(j.cause.Error(), fmt.Sprintf("client %d", by)) {
				w.fail("after %s: job %d ended UNKNOWN (cause %v); dropped by %v %v", what, id, j.cause, by, lost)
			}
		}
	}
}

func (w *exhaustWorld) fail(format string, args ...any) {
	w.t.Helper()
	for _, id := range w.ids {
		c := w.clients[id]
		w.t.Logf("client %d sub=%v job=%d gone=%v up=%d master=%+v", id, c.sub, c.job, c.gone, len(c.up), w.m.clients[id])
	}
	for id, g := range w.m.pendingSplits {
		w.t.Logf("split %d: %+v", id, *g)
	}
	evs := w.m.flight.Events()
	var b strings.Builder
	for _, ev := range evs[max(0, len(evs)-25):] {
		fmt.Fprintf(&b, "  %+v\n", ev)
	}
	w.t.Fatalf("%s: "+format+"\n%s", append(append([]any{w.label}, args...), b.String())...)
}

// queue puts a message on the client's uplink.
func (c *scriptedClient) queue(msg comm.Message, effect func()) {
	c.up = append(c.up, upMsg{ev: from(c.id, msg), effect: effect})
}

// receive is a client acting on one master message.
func (w *exhaustWorld) receive(c *scriptedClient, msg comm.Message) {
	if c == nil || c.gone {
		return // the master requeues what it sent on the loss
	}
	switch msg := msg.(type) {
	case comm.SplitPayload:
		w.start(c, msg.SplitID, msg.Job, msg.Subs[0], true)
	case comm.SplitAssign:
		w.split(c, msg)
	case comm.StopWork:
		if msg.Job == c.job && c.sub != nil {
			c.sub = nil
			if w.hostile && w.rng.Intn(4) == 0 {
				w.did["gave up"]++ // and answers the stop without a verdict first
				c.queue(comm.Solved{Status: solver.StatusUnknown, Job: msg.Job}, nil)
			}
		}
		c.queue(comm.Stopped{Job: msg.Job, Seq: msg.Seq}, nil)
	}
}

// start is a client receiving one subproblem, from the master or a peer.
func (w *exhaustWorld) start(c *scriptedClient, splitID, job int, sub *solver.Subproblem, fromMaster bool) {
	done := comm.SplitDone{SplitID: splitID}
	switch {
	case c.sub != nil:
		done.Err, done.Leftover = "already busy", []*solver.Subproblem{sub}
	case w.rng.Intn(10) == 0:
		c.job = job
		done.Err, done.Leftover = "no base problem cached", []*solver.Subproblem{sub}
	case w.hostile && !fromMaster && w.rng.Intn(25) == 0:
		w.did["dropped cofactor"]++
		done.Err = "subproblem variable count mismatch"
		by := c.id
		c.queue(done, func() { w.dropped[job] = by })
		return
	default:
		c.job = job
		c.sub, done.OK, done.Cube = sub, true, sub.Cube
	}
	c.queue(done, nil)
}

// split is a donor answering SplitAssign: it forks its cube over the next
// one or two variables, keeps the all-positive cofactor, ships one of the
// others to each peer in order until a dial fails, and hands the master
// what it did not ship. Now and then it is lost between its payloads and
// its SplitDone.
func (w *exhaustWorld) split(c *scriptedClient, msg comm.SplitAssign) {
	done := comm.SplitDone{SplitID: msg.SplitID}
	switch {
	case c.sub == nil:
		done.Err = "donor already idle"
	case w.rng.Intn(10) == 0 || len(c.sub.Cube)+2 > exhaustMaxDepth:
		done.Err = "nothing to split on"
	default:
		pre := c.sub.Cube
		k := 1
		if w.fanout > 1 {
			k += w.rng.Intn(2)
		}
		var cubes [][]cnf.Lit
		for combo := range 1 << k {
			cube := slices.Clone(pre)
			for i := range k {
				cube = append(cube, cnf.MkLit(cnf.Var(len(pre)+i), combo&(1<<i) != 0))
			}
			cubes = append(cubes, cube)
		}
		own := cubes[0]
		c.sub = &solver.Subproblem{NumVars: exhaustVars, Cube: own}
		done.OK, done.Cube = true, own
		for _, cube := range cubes[1:] {
			sub := &solver.Subproblem{NumVars: exhaustVars, Assumptions: cube, Cube: cube}
			if len(done.Leftover) == 0 && done.Used < len(msg.Peers) {
				if peer := w.clients[msg.Peers[done.Used].ID]; !peer.gone && w.rng.Intn(12) != 0 {
					w.start(peer, msg.SplitID, c.job, sub, false)
					done.Served = append(done.Served, cube)
					done.Used++
					continue
				}
			}
			done.Leftover = append(done.Leftover, sub) // the dial failed, or no peer is left
		}
		if w.crashy && done.Used > 0 && w.rng.Intn(8) == 0 {
			w.did["lost mid-split"]++
			w.loseNow(c)
			return
		}
	}
	c.queue(done, nil)
}

// Environment actions. Each returns false when it does not apply now.

func (w *exhaustWorld) join() bool {
	id := w.m.connect()
	w.clients[id] = &scriptedClient{id: id}
	w.ids = append(w.ids, id)
	w.handle("register", from(id, comm.Register{Addr: fmt.Sprintf("c%d", id),
		FreeMemBytes: 1 << 20, SpeedHint: 1 + w.rng.Float64(), Fanout: w.fanout}), nil)
	return true
}

func (w *exhaustWorld) arrive() bool {
	w.apply("submit", func() { w.jobs = append(w.jobs, w.submit(w.formula, 1)) })
	return true
}

// active reports whether any job is still running.
func (w *exhaustWorld) active() bool {
	return slices.ContainsFunc(w.jobs, func(id int) bool { return w.m.jobs[id].State.Active() })
}

// pick returns a random client satisfying ok, nil when none does.
func (w *exhaustWorld) pick(ok func(*scriptedClient) bool) *scriptedClient {
	var cands []*scriptedClient
	for _, id := range w.ids {
		if c := w.clients[id]; ok(c) {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[w.rng.Intn(len(cands))]
}

func searching(c *scriptedClient) bool { return !c.gone && c.sub != nil }

// deliver hands the master the head of one client's uplink.
func (w *exhaustWorld) deliver() bool {
	c := w.pick(func(c *scriptedClient) bool { return len(c.up) > 0 })
	if c == nil {
		return false
	}
	w.deliverFrom(c)
	return true
}

// deliverFrom steps the head of c's uplink. When the master credits a
// refutation to the client, the cube it closes must be the one searched.
func (w *exhaustWorld) deliverFrom(c *scriptedClient) {
	head := c.up[0]
	c.up = c.up[1:]
	what := "client lost"
	if head.ev.err == nil {
		what = head.ev.msg.Kind()
		if s, ok := head.ev.msg.(comm.SplitDone); ok && !s.OK {
			what += " (failed)"
		}
	}
	if head.refutes == nil {
		w.handle(what, head.ev, head.effect)
		return
	}
	j := w.m.jobs[head.ev.msg.(comm.Solved).Job]
	closed, credited := j.prog.Closed(), slices.Clone(w.m.clients[c.id].cube)
	w.handle(what, head.ev, func() {
		if j.prog.Closed() == closed {
			return
		}
		if !slices.Equal(credited, head.refutes) {
			w.fail("client %d refuted %v; the master closed %v", c.id, head.refutes, credited)
		}
		w.refuted[j.ID] = append(w.refuted[j.ID], credited)
	})
}

func (w *exhaustWorld) refute() bool {
	c := w.pick(searching)
	if c == nil {
		return false
	}
	c.up = append(c.up, upMsg{ev: from(c.id, comm.Solved{Status: solver.StatusUNSAT, Job: c.job}),
		refutes: append([]cnf.Lit{}, c.sub.Cube...)})
	c.sub = nil
	return true
}

func (w *exhaustWorld) satisfy() bool {
	c := w.pick(searching)
	if c == nil {
		return false
	}
	model := cnf.NewAssignment(exhaustVars)
	for v := range exhaustVars {
		model.Set(cnf.PosLit(cnf.Var(v)))
	}
	c.sub = nil
	c.queue(comm.Solved{Status: solver.StatusSAT, Model: model, Job: c.job}, nil)
	return true
}

// giveUp is a hostile client dropping its subproblem unsearched and saying
// so with a Solved that carries no verdict.
func (w *exhaustWorld) giveUp() bool {
	c := w.pick(searching)
	if c == nil || !w.hostile {
		return false
	}
	w.did["gave up"]++
	c.queue(comm.Solved{Status: solver.StatusUnknown, Job: c.job}, nil)
	c.sub = nil
	return true
}

func (w *exhaustWorld) requestSplit() bool {
	c := w.pick(searching)
	if c == nil {
		return false
	}
	c.queue(comm.SplitRequest{ClientID: c.id, Why: comm.SplitTimeout}, nil)
	return true
}

// lose crashes a client; the master hears of the loss behind everything
// already sent, and nothing of what it held comes with the news.
func (w *exhaustWorld) lose() bool {
	c := w.pick(func(c *scriptedClient) bool { return !c.gone })
	if c == nil {
		return false
	}
	if c.sub != nil {
		w.did["lost while searching"]++
	}
	w.loseNow(c)
	return true
}

func (w *exhaustWorld) loseNow(c *scriptedClient) {
	c.gone, c.sub = true, nil
	c.up = append(c.up, upMsg{ev: masterEvent{clientID: c.id, err: errCrashed}})
}

func (w *exhaustWorld) cancel() bool {
	var active []int
	for _, id := range w.jobs {
		if w.m.jobs[id].State.Active() {
			active = append(active, id)
		}
	}
	if len(active) == 0 {
		return false
	}
	id := active[w.rng.Intn(len(active))]
	w.apply("cancel", func() {
		if err := w.m.cancel(id); err != nil {
			w.t.Fatal(err)
		}
	})
	return true
}

func (w *exhaustWorld) tick() bool {
	w.apply("serve", w.m.serveBacklog)
	return true
}

// forecast makes one idle client look much faster, then lets the master
// consider moving somebody's subproblem there (§3.4): a StopWork, whose
// ack hands the cube back.
func (w *exhaustWorld) forecast() bool {
	c := w.pick(func(c *scriptedClient) bool { return !c.gone && c.sub == nil })
	if c == nil {
		return false
	}
	w.apply("forecast", func() {
		w.m.noteForecast(c.id, 1e6, 1<<20)
		w.m.maybeMigrate(2, 0)
		w.m.noteForecast(c.id, 1, 1<<20)
	})
	return true
}

// drain stops the churn and lets the clients finish: every job must end
// within a bounded number of steps.
func (w *exhaustWorld) drain() {
	w.t.Helper()
	for i := 0; w.active(); i++ {
		if i == 2000 {
			w.fail("jobs %v never ended; the master's view:\n%+v", w.jobs, w.m.state().Jobs)
		}
		switch {
		case w.deliver():
		case w.refute():
		case w.pick(func(c *scriptedClient) bool { return !c.gone }) == nil:
			w.join()
		default:
			w.tick()
		}
	}
}

// TestUNSATOnlyWhenEverySubproblemIsRefuted: the master may call a job
// unsatisfiable only when the cubes it credited refutations to partition the
// root, and after every event the cubes it holds for a running job fill the
// rest of the root exactly — whatever was split, bounced, lost, moved,
// given up or promised. A lost client never fails a job. Random schedules
// of everything that moves a subproblem are run against a master that is
// told nothing but its own messages.
func TestUNSATOnlyWhenEverySubproblemIsRefuted(t *testing.T) {
	t.Run("a moved client hands its cube back", func(t *testing.T) {
		w := newExhaustWorld(t, 1, "first-decision", false)
		for range 3 {
			w.join()
		}
		w.arrive()
		for w.deliver() { // the root is accepted
		}
		for try := 0; w.m.state().Busy < 2; try++ { // …and split: job 1 holds two clients, the third is idle
			if try == 20 {
				t.Fatal("setup: job 1 never split")
			}
			w.requestSplit()
			for w.deliver() {
			}
		}
		if st := w.m.state(); st.Busy != 2 || st.Outstanding != 2 {
			t.Fatalf("setup: %d busy, %d outstanding; want 2 and 2", st.Busy, st.Outstanding)
		}
		// The idle client looks far faster, so the master stops the weakest
		// busy client; its ack hands the cube to the fast client.
		fast := w.pick(func(c *scriptedClient) bool { return c.sub == nil && w.m.clients[c.id].state == idle })
		w.apply("forecast", func() {
			w.m.noteForecast(fast.id, 1e6, 1<<20)
			w.m.maybeMigrate(2, 0)
		})
		victim := w.pick(func(c *scriptedClient) bool { return w.m.clients[c.id].state == parked })
		if victim == nil {
			t.Fatalf("no busy client was stopped to migrate: %+v", w.m.state().Clients)
		}
		cube := slices.Clone(w.m.clients[victim.id].cube)
		for w.deliver() {
		}
		if got := w.clients[fast.id].sub; got == nil || !slices.Equal(got.Cube, cube) || w.m.migrations != 1 {
			t.Fatalf("client %d's cube %v did not move to client %d (%v); %d migrations",
				victim.id, cube, fast.id, got, w.m.migrations)
		}
		evs := w.m.flight.Events()
		if ev := evs[len(evs)-1]; ev.Kind != trace.FEvMigrate || ev.Client != victim.id || ev.Peer != fast.id {
			t.Fatalf("last event %+v, want a migrate from client %d to %d", ev, victim.id, fast.id)
		}
		w.drain()
		if row := w.m.state().Jobs[0]; row.Verdict != "UNSAT" {
			t.Fatalf("job 1 after the migration: %+v", row)
		}
	})

	actions := []struct {
		weight int
		do     func(*exhaustWorld) bool
	}{
		{120, (*exhaustWorld).deliver},
		{20, (*exhaustWorld).refute},
		{30, (*exhaustWorld).requestSplit},
		{12, (*exhaustWorld).tick},
		{5, (*exhaustWorld).join},
		{6, (*exhaustWorld).forecast},
		{2, (*exhaustWorld).giveUp},
		{5, (*exhaustWorld).lose},
		{1, (*exhaustWorld).cancel},
		{1, (*exhaustWorld).satisfy},
	}
	total := 0
	for _, a := range actions {
		total += a.weight
	}
	did := map[string]int{}
	verdicts := map[string]int{}
	for _, strategy := range []string{"first-decision", "dilemma"} {
		for _, nJobs := range []int{1, 3} {
			for seed := int64(1); seed <= 75; seed++ {
				w := newExhaustWorld(t, seed, strategy, seed%2 == 0)
				w.label = fmt.Sprintf("%s, %d jobs, seed %d", strategy, nJobs, seed)
				w.crashy = true
				for range 4 {
					w.join()
				}
				w.arrive()
				for steps := 0; steps < 300; steps++ {
					// Up to nJobs at a time, six in all.
					running := 0
					for _, id := range w.jobs {
						if w.m.jobs[id].State.Active() {
							running++
						}
					}
					if running < nJobs && len(w.jobs) < 6 && w.rng.Intn(10) == 0 {
						w.arrive()
					}
					n := w.rng.Intn(total)
					for _, a := range actions {
						if n -= a.weight; n < 0 {
							a.do(w)
							break
						}
					}
				}
				w.drain()
				for what, n := range w.did {
					did[what] += n
				}
				did["migration"] += w.m.migrations
				for _, row := range w.m.state().Jobs {
					verdicts[row.Verdict]++
				}
			}
		}
	}
	// The schedules must have gone where the accounting is hard.
	for _, what := range []string{"split-done (failed)", "stopped", "client lost", "migration",
		"gave up", "dropped cofactor", "lost while searching", "lost mid-split", "cancel"} {
		if did[what] == 0 {
			t.Errorf("no schedule exercised %q: %v", what, did)
		}
	}
	for _, v := range []string{"UNSAT", "SAT", "UNKNOWN", "CANCELLED"} {
		if verdicts[v] == 0 {
			t.Errorf("no job ended %s: %v", v, verdicts)
		}
	}
	t.Logf("steps by kind: %v; verdicts: %v", did, verdicts)
}
