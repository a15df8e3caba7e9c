package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// The world below is the master's environment written a second time, as
// locations instead of counts: scripted clients that hold subproblem
// *pointers*, and a set of the pointers nobody has refuted yet. The master
// is driven through handle alone and read through ClusterState alone.
//
// What the master sends is acted on at once (a split is made, a payload
// started or bounced, a checkpoint taken); what a client sends, a
// recipient's accept included, waits in its FIFO uplink until the schedule
// delivers it. So the master always acts on
// old news — a verdict, a loss or an ack it has not seen yet — which is
// where every accounting defect so far has lived.

// upMsg is one event on a client's uplink, with what its arrival does to
// the set of unrefuted subproblems (nil: nothing).
type upMsg struct {
	ev     masterEvent
	effect func()
}

type scriptedClient struct {
	id   int
	sub  *solver.Subproblem // what it is searching, nil when idle
	job  int                // of the last subproblem it was sent, started or not
	up   []upMsg
	gone bool // lost; the master learns when the uplink drains to the marker
}

// promise is one SplitAssign or Migrate the master issued: a placeholder
// per reserved peer, which the donor's cofactors become if it makes them.
type promise struct {
	donor, job int
	peers      []int
	subs       []*solver.Subproblem
	delivered  []bool // reached its peer (who then acks for itself)
}

type exhaustWorld struct {
	t       *testing.T
	rng     *rand.Rand
	m       *Master
	now     float64
	formula *cnf.Formula
	hostile bool // scripts may drop a subproblem they hold
	sent    []struct {
		to  int
		msg comm.Message
	}
	clients  map[int]*scriptedClient
	ids      []int // every client ever connected, in order
	promises map[int]*promise
	// live[job] is the job's unrefuted subproblems wherever they are; a job
	// leaves the map when it ends. root[job] stands in for the whole
	// problem until the master names it; dropped[job] names the client that
	// lost one of the job's subproblems for good. unsalvaged is the job a
	// client was last sent work for when the step is its loss with nothing
	// recovered: the master cannot know what it held and may give up.
	live       map[int]map[*solver.Subproblem]bool
	root       map[int]*solver.Subproblem
	dropped    map[int]int
	unsalvaged map[int]bool
	jobs       []int
	did        map[string]int
}

func newExhaustWorld(t *testing.T, seed int64, strategy string, hostile bool) *exhaustWorld {
	w := &exhaustWorld{t: t, rng: rand.New(rand.NewSource(seed)), now: 1, hostile: hostile,
		clients: map[int]*scriptedClient{}, promises: map[int]*promise{},
		live: map[int]map[*solver.Subproblem]bool{}, root: map[int]*solver.Subproblem{},
		dropped: map[int]int{}, unsalvaged: map[int]bool{}, did: map[string]int{}}
	w.formula = cnf.NewFormula(2)
	w.formula.Add(1, 2)
	m, err := newMaster(MasterConfig{SplitStrategy: strategy, Flight: trace.NewFlight(nil)},
		func() float64 { return w.now },
		func(to int, msg comm.Message) {
			w.sent = append(w.sent, struct {
				to  int
				msg comm.Message
			}{to, msg})
		},
		func(BundleSpec) {})
	if err != nil {
		t.Fatal(err)
	}
	w.m = m
	return w
}

func (w *exhaustWorld) add(job int, sub *solver.Subproblem) {
	if set := w.live[job]; set != nil {
		set[sub] = true
	}
}

func (w *exhaustWorld) remove(job int, sub *solver.Subproblem) { delete(w.live[job], sub) }

// step hands the master one event, applies what its arrival means for the
// set, lets the clients act on everything the master sent, and checks.
func (w *exhaustWorld) step(what string, ev masterEvent, effect func()) {
	w.t.Helper()
	w.now += 0.25
	w.did[what]++
	if done, err := w.m.handle(ev); done || err != nil {
		w.t.Fatalf("%s: a service master returned done=%v err=%v", what, done, err)
	}
	if effect != nil {
		effect()
	}
	for len(w.sent) > 0 {
		s := w.sent[0]
		w.sent = w.sent[1:]
		w.receive(w.clients[s.to], s.msg)
	}
	w.check(what)
}

func (w *exhaustWorld) apply(what string, fn func()) {
	w.t.Helper()
	w.step(what, masterEvent{apply: func() bool { fn(); return false }}, nil)
}

// check is the safety property, after every step: a job is UNSAT exactly
// when none of its subproblems is left unrefuted, a dropped subproblem ends
// its job UNKNOWN with a cause, and the master's count of live subproblems
// is the size of the set.
func (w *exhaustWorld) check(what string) {
	w.t.Helper()
	st := w.m.state()
	want := 0
	for _, row := range st.Jobs {
		set, tracked := w.live[row.ID]
		if !tracked {
			continue
		}
		ended := row.State == "done" || row.State == "cancelled"
		unsat := row.State == "done" && row.Verdict == "UNSAT"
		gaveUp := row.Verdict == "UNKNOWN" && w.unsalvaged[row.ID]
		if unsat && len(set) != 0 || len(set) == 0 && !unsat && !gaveUp {
			w.t.Fatalf("after %s: job %d is %s/%q with %d subproblems unrefuted\n%s",
				what, row.ID, row.State, row.Verdict, len(set), w.flightTail())
		}
		if by, lost := w.dropped[row.ID]; lost {
			cause := w.m.jobs[row.ID].cause
			if row.State != "done" || row.Verdict != "UNKNOWN" || cause == nil ||
				!strings.Contains(cause.Error(), fmt.Sprintf("client %d", by)) {
				w.t.Fatalf("after %s: client %d dropped a subproblem of job %d, which is %s/%q (cause %v)",
					what, by, row.ID, row.State, row.Verdict, cause)
			}
		}
		if ended {
			delete(w.live, row.ID)
		} else if row.Searching {
			want += len(set)
		}
	}
	clear(w.unsalvaged)
	if st.Outstanding != want {
		for job, set := range w.live {
			w.t.Logf("job %d: %d unrefuted %v, root %p", job, len(set), set, w.root[job])
			for id, p := range w.promises {
				w.t.Logf("promise %d: %+v", id, *p)
			}
		}
		for _, id := range w.ids {
			c := w.clients[id]
			w.t.Logf("client %d sub=%p job=%d gone=%v up=%d master=%+v", id, c.sub, c.job, c.gone, len(c.up), w.m.clients[id])
		}
		w.t.Fatalf("after %s: the master counts %d live subproblems, %d are unrefuted\n%s",
			what, st.Outstanding, want, w.flightTail())
	}
}

func (w *exhaustWorld) flightTail() string {
	evs := w.m.flight.Events()
	var b strings.Builder
	for _, ev := range evs[max(0, len(evs)-25):] {
		fmt.Fprintf(&b, "  %+v\n", ev)
	}
	return b.String()
}

// queue puts a message on the client's uplink.
func (c *scriptedClient) queue(msg comm.Message, effect func()) {
	c.up = append(c.up, upMsg{ev: from(c.id, msg), effect: effect})
}

// receive is a client acting on one master message.
func (w *exhaustWorld) receive(c *scriptedClient, msg comm.Message) {
	if c == nil {
		return
	}
	switch msg := msg.(type) {
	case comm.SplitPayload:
		sub := msg.Subs[0]
		if set := w.live[msg.Job]; set != nil && !set[sub] {
			// The only subproblem the master makes itself is a job's root.
			if w.root[msg.Job] == nil {
				w.t.Fatalf("the master handed out a subproblem of job %d nobody gave it", msg.Job)
			}
			w.remove(msg.Job, w.root[msg.Job])
			w.add(msg.Job, sub)
			w.root[msg.Job] = nil
		}
		if c.gone { // still the master's, which requeues it on the loss
			c.job = msg.Job
			return
		}
		w.start(c, msg.SplitID, msg.Job, sub, true)
	case comm.SplitAssign:
		w.split(c, msg)
	case comm.Migrate:
		w.migrate(c, msg)
	case comm.StopWork:
		if c.gone {
			return
		}
		if msg.Job == c.job {
			c.sub = nil // the job is over; so is tracking it
		}
		c.queue(comm.Stopped{ClientID: c.id, Job: msg.Job, Seq: msg.Seq}, nil)
	}
}

// drop records that a client lost a subproblem of job for good, if the job
// is still there to care.
func (w *exhaustWorld) drop(job, by int) {
	if w.live[job] != nil {
		w.dropped[job] = by
	}
}

// start is a client receiving one subproblem, from the master or a peer.
func (w *exhaustWorld) start(c *scriptedClient, splitID, job int, sub *solver.Subproblem, fromMaster bool) {
	done := comm.SplitDone{ClientID: c.id, SplitID: splitID}
	c.job = job
	switch {
	case c.sub != nil:
		done.Err, done.Leftover = "already busy", []*solver.Subproblem{sub}
	case w.rng.Intn(10) == 0:
		done.Err, done.Leftover = "no base problem cached", []*solver.Subproblem{sub}
	case w.hostile && !fromMaster && w.rng.Intn(25) == 0:
		w.did["dropped cofactor"]++
		done.Err = "subproblem variable count mismatch"
		c.queue(done, func() { w.drop(job, c.id) })
		return
	default:
		c.sub, done.OK = sub, true
	}
	c.queue(done, nil)
}

// split is a donor answering SplitAssign: the master reserved one peer per
// placeholder the moment it sent this.
func (w *exhaustWorld) split(c *scriptedClient, msg comm.SplitAssign) {
	p := &promise{donor: c.id, job: c.job, delivered: make([]bool, len(msg.Peers))}
	for _, peer := range msg.Peers {
		p.peers = append(p.peers, peer.ID)
		sub := &solver.Subproblem{NumVars: 2, Depth: 1}
		p.subs = append(p.subs, sub)
		w.add(p.job, sub)
	}
	w.promises[msg.SplitID] = p
	if c.gone {
		return
	}
	done := comm.SplitDone{ClientID: c.id, SplitID: msg.SplitID}
	made := 0
	switch {
	case c.sub == nil:
		done.Err = "donor already idle"
	case w.rng.Intn(10) == 0:
		done.Err = "nothing to split on"
	default:
		done.OK = true
		made = 1 + w.rng.Intn(max(1, w.m.fanout))
		for done.Used < min(made, len(p.peers)) {
			peer := w.clients[p.peers[done.Used]]
			if peer.gone || w.rng.Intn(12) == 0 {
				break // the dial failed
			}
			p.delivered[done.Used] = true
			w.start(peer, msg.SplitID, p.job, p.subs[done.Used], false)
			done.Used++
		}
		// What was made and not shipped rides back to the master.
		for i := done.Used; i < made; i++ {
			if i < len(p.subs) {
				done.Leftover = append(done.Leftover, p.subs[i])
			} else {
				done.Leftover = append(done.Leftover, &solver.Subproblem{NumVars: 2, Depth: 1})
			}
		}
	}
	used, leftover := done.Used, done.Leftover
	c.queue(done, func() {
		for _, sub := range p.subs[used:] {
			w.remove(p.job, sub)
		}
		for _, sub := range leftover {
			w.add(p.job, sub)
		}
		delete(w.promises, msg.SplitID)
	})
}

// migrate is a donor answering Migrate: its whole subproblem moves.
func (w *exhaustWorld) migrate(c *scriptedClient, msg comm.Migrate) {
	moved := &solver.Subproblem{NumVars: 2}
	p := &promise{donor: c.id, job: c.job, peers: []int{msg.PeerID},
		subs: []*solver.Subproblem{moved}, delivered: []bool{false}}
	w.add(p.job, moved)
	w.promises[msg.SplitID] = p
	if c.gone {
		return
	}
	settle := func() { delete(w.promises, msg.SplitID) }
	off := func() { w.remove(p.job, moved); settle() }
	peer := w.clients[msg.PeerID]
	if c.sub == nil || peer.gone || w.rng.Intn(8) == 0 {
		c.queue(comm.SplitDone{ClientID: c.id, SplitID: msg.SplitID, Err: "the move is off"}, off)
		return
	}
	if w.hostile && w.rng.Intn(4) == 0 {
		w.bareAck(c, msg.SplitID, off)
		return
	}
	w.did["migrate"]++
	moved.Depth = c.sub.Depth
	p.delivered[0] = true
	w.start(peer, msg.SplitID, p.job, moved, false)
	old, job := c.sub, c.job
	c.sub = nil
	c.queue(comm.SplitDone{ClientID: c.id, SplitID: msg.SplitID, OK: true, Used: 1}, settle)
	c.queue(comm.Solved{ClientID: c.id, Status: solver.StatusUnknown, Job: job},
		func() { w.remove(job, old) })
}

// bareAck is a donor answering Migrate by dropping its subproblem and
// acknowledging a stop it was never sent, echoing the master's stop token
// so the ack is not stale; then it calls the move off.
func (w *exhaustWorld) bareAck(c *scriptedClient, splitID int, off func()) {
	w.did["bare ack"]++
	job, by := c.job, c.id
	c.sub = nil
	c.queue(comm.Stopped{ClientID: c.id, Job: job, Seq: w.m.clients[c.id].stopSeq}, func() { w.drop(job, by) })
	c.queue(comm.SplitDone{ClientID: c.id, SplitID: splitID, Err: "the move is off"}, off)
}

// Environment actions. Each returns false when it does not apply now.

func (w *exhaustWorld) register() bool {
	id := w.m.connect()
	w.clients[id] = &scriptedClient{id: id}
	w.ids = append(w.ids, id)
	w.step("register", from(id, comm.Register{Addr: fmt.Sprintf("c%d", id),
		FreeMemBytes: 1 << 20, SpeedHint: 1 + w.rng.Float64()}), nil)
	return true
}

func (w *exhaustWorld) submit() bool {
	var id int
	w.apply("submit", func() {
		var err error
		if id, err = w.m.submit("", w.formula, 1); err != nil {
			w.t.Fatal(err)
		}
		// Tracked before the step's check sees the new job.
		w.root[id] = &solver.Subproblem{}
		w.live[id] = map[*solver.Subproblem]bool{w.root[id]: true}
		w.jobs = append(w.jobs, id)
	})
	return true
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
	w.step(what, head.ev, head.effect)
}

func (w *exhaustWorld) refute() bool {
	c := w.pick(searching)
	if c == nil {
		return false
	}
	sub, job := c.sub, c.job
	c.sub = nil
	c.queue(comm.Solved{ClientID: c.id, Status: solver.StatusUNSAT, Depth: sub.Depth, Job: job},
		func() { w.remove(job, sub) })
	return true
}

func (w *exhaustWorld) satisfy() bool {
	c := w.pick(searching)
	if c == nil {
		return false
	}
	model := cnf.NewAssignment(2)
	model.Set(cnf.LitFromDIMACS(1))
	model.Set(cnf.LitFromDIMACS(2))
	c.sub = nil
	c.queue(comm.Solved{ClientID: c.id, Status: solver.StatusSAT, Model: model, Job: c.job}, nil)
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

// lose crashes a client. With salvage the shell recovers what it was
// searching; the master hears of the loss behind everything already sent.
func (w *exhaustWorld) lose(salvage bool) bool {
	c := w.pick(func(c *scriptedClient) bool { return !c.gone })
	if c == nil {
		return false
	}
	c.gone = true
	ev := masterEvent{clientID: c.id, err: errCrashed}
	if salvage {
		ev.salvage = []*solver.Subproblem{}
		if c.sub != nil {
			ev.salvage = append(ev.salvage, c.sub)
		}
	} else if c.sub != nil {
		w.did["lost with its subproblem"]++
	}
	c.up = append(c.up, upMsg{ev: ev, effect: func() {
		w.unsalvaged[c.job] = !salvage
		// Promises die with their maker, or with the peer they were made
		// to unless it got the cofactor (then it answered for itself).
		for id, p := range w.promises {
			for i, sub := range p.subs {
				if p.donor == c.id || p.peers[i] == c.id && !p.delivered[i] {
					w.remove(p.job, sub)
				}
				if p.peers[i] == c.id && !salvage {
					w.unsalvaged[p.job] = true // reserved counts as holding
				}
			}
			if p.donor == c.id {
				delete(w.promises, id)
			}
		}
	}})
	return true
}

func (w *exhaustWorld) cancel() bool {
	var active []int
	for _, id := range w.jobs {
		if w.live[id] != nil {
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
// consider moving somebody's subproblem there (§3.4).
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
	for i := 0; len(w.live) > 0; i++ {
		if i == 2000 {
			w.t.Fatalf("jobs %v never ended; the master's view:\n%+v\n%s", w.jobs, w.m.state().Jobs, w.flightTail())
		}
		switch {
		case w.deliver():
		case w.refute():
		case w.pick(func(c *scriptedClient) bool { return !c.gone }) == nil:
			w.register()
		default:
			w.tick()
		}
	}
}

// TestUNSATOnlyWhenEverySubproblemIsRefuted: the master may call a job
// unsatisfiable only when every subproblem of it has been refuted — not
// merely given up, bounced, lost or promised — and must do so as soon as
// that is the case. Random schedules of everything that moves a subproblem
// are run against a master that is told nothing but its own messages.
func TestUNSATOnlyWhenEverySubproblemIsRefuted(t *testing.T) {
	t.Run("a bare ack from a busy client ends its job UNKNOWN", func(t *testing.T) {
		w := newExhaustWorld(t, 1, "first-decision", false)
		for range 3 {
			w.register()
		}
		w.submit()
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
		// The idle client looks far faster, so the master moves the weakest
		// busy client's subproblem there; that donor drops it and acks a stop.
		idle := w.pick(func(c *scriptedClient) bool { return c.sub == nil })
		w.m.noteForecast(idle.id, 1e6, 1<<20)
		w.m.maybeMigrate(2, 0)
		var victim *scriptedClient
		for _, s := range w.sent {
			if mig, ok := s.msg.(comm.Migrate); ok {
				victim = w.clients[s.to]
				w.bareAck(victim, mig.SplitID, nil)
			}
		}
		w.sent = nil
		if victim == nil {
			t.Fatalf("no busy client was asked to migrate: %+v", w.m.state().Clients)
		}
		w.deliver() // check: job 1 is done/UNKNOWN and names the client
		w.submit()
		w.drain() // the service keeps serving: job 2 gets the clients
		if row := w.m.state().Jobs[1]; row.Verdict != "UNSAT" {
			t.Fatalf("job 2 after job 1 failed: %+v", row)
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
		{5, (*exhaustWorld).register},
		{6, (*exhaustWorld).forecast},
		{4, func(w *exhaustWorld) bool { return w.lose(true) }},
		{1, func(w *exhaustWorld) bool { return w.lose(false) }},
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
				for range 4 {
					w.register()
				}
				w.submit()
				for steps := 0; steps < 300; steps++ {
					// Up to nJobs at a time, six in all.
					if len(w.live) < nJobs && len(w.jobs) < 6 && w.rng.Intn(10) == 0 {
						w.submit()
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
				for _, row := range w.m.state().Jobs {
					verdicts[row.Verdict]++
				}
			}
		}
	}
	// The schedules must have gone where the accounting is hard.
	for _, what := range []string{"split-done (failed)", "stopped", "client lost", "migrate",
		"bare ack", "dropped cofactor", "lost with its subproblem", "cancel"} {
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
