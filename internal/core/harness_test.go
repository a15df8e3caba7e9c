package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
)

// harness is a master with no shell — no listener, goroutine or clock of
// its own — whose one entry point the test steps. The event loop is
// single-threaded, so calling it from the test goroutine exercises exactly
// the production accounting. The clock is now, which the test sets; what
// the master sends waits in outbox until the test reads it or settle
// answers it.
type harness struct {
	t      *testing.T
	m      *Master
	now    float64
	outbox []sent
}

// sent is one message a master sent, and to whom.
type sent struct {
	to  int
	msg comm.Message
}

func newHarness(t *testing.T, cfg MasterConfig) *harness {
	h := &harness{t: t, now: 1}
	h.m = newMaster(cfg, func() float64 { return h.now },
		func(to int, msg comm.Message) { h.outbox = append(h.outbox, sent{to, msg}) },
		func(BundleSpec) {})
	return h
}

// twoVars is the formula (1 ∨ 2): a job any client refutes or satisfies at
// once.
func twoVars() *cnf.Formula {
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	return f
}

// from drives the master's one entry point with a message from client id.
func from(id int, msg comm.Message) masterEvent { return masterEvent{clientID: id, msg: msg} }

// stepAt hands the master ev at time at and fails the test if ev ends the
// run or errs.
func (h *harness) stepAt(at float64, ev masterEvent) {
	h.t.Helper()
	h.now = at
	if done, err := h.m.handle(ev); done || err != nil {
		what := "an applied call"
		if ev.err != nil {
			what = fmt.Sprintf("the loss of client %d", ev.clientID)
		} else if ev.msg != nil {
			what = fmt.Sprintf("%s from client %d", ev.msg.Kind(), ev.clientID)
		}
		h.t.Fatalf("%s at %v: done=%v err=%v", what, at, done, err)
	}
}

// step hands the master msg from client id, a second after the last event.
func (h *harness) step(id int, msg comm.Message) {
	h.t.Helper()
	h.stepAt(h.now+1, from(id, msg))
}

// lose tells the master, a second after the last event, that client id's
// link broke.
func (h *harness) lose(id int) {
	h.t.Helper()
	h.stepAt(h.now+1, masterEvent{clientID: id, err: errCrashed})
}

// register connects a client, registers it with the speed and split fanout
// given, and returns the master's row for it.
func (h *harness) register(speed float64, fanout int) *masterClient {
	h.t.Helper()
	id := h.m.connect()
	h.step(id, comm.Register{Addr: fmt.Sprintf("c%d", id), FreeMemBytes: 1 << 20, SpeedHint: speed, Fanout: fanout})
	return h.m.clients[id]
}

// submit admits f as a job of the priority given and returns its ID.
func (h *harness) submit(f *cnf.Formula, priority int) int {
	h.t.Helper()
	id, err := h.m.submit("", f, priority)
	if err != nil {
		h.t.Fatal(err)
	}
	return id
}

// settle has every live client answer what the master sent it, until
// nothing is left: a payload is started, a stop acknowledged. Split
// assignments are the test's to answer.
func (h *harness) settle() {
	h.t.Helper()
	for len(h.outbox) > 0 {
		s := h.outbox[0]
		h.outbox = h.outbox[1:]
		if h.m.clients[s.to] == nil {
			continue
		}
		switch msg := s.msg.(type) {
		case comm.SplitPayload:
			h.step(s.to, comm.SplitDone{SplitID: msg.SplitID, OK: true, Cube: msg.Subs[0].Cube})
		case comm.StopWork:
			h.step(s.to, comm.Stopped{Job: msg.Job, Seq: msg.Seq})
		}
	}
}

// String names a state in test failures.
func (s clientState) String() string {
	return [...]string{"idle", "reserved", "busy", "stopping", "parked"}[s]
}

// Every cube in these tests is a path in one tree: its i-th literal is on
// variable i, so two cubes are contradictory exactly when neither is a
// prefix of the other (partition).

// held lists the cubes m holds for an active job: its clients' (holding),
// the cofactors a donor reported shipping to recipients that have not
// acknowledged, and its backlog.
func held(m *Master, j *masterJob) [][]cnf.Lit {
	var out [][]cnf.Lit
	for _, id := range m.order {
		if c := m.clients[id]; c.job == j.ID {
			out = append(out, m.holding(c)...)
		}
	}
	for _, g := range m.pendingSplits {
		for i, rid := range g.recipients {
			if g.job == j.ID && g.donorDone && !g.settled[rid] && i < len(g.served) {
				out = append(out, g.served[i])
			}
		}
	}
	for _, e := range j.subBacklog {
		out = append(out, e.sub.Cube)
	}
	return out
}

// partition says why cubes do not partition the root, or nil when they
// do: each is a path of the tree, none extends another, and their masses
// 2^-len add up to the whole.
func partition(cubes [][]cnf.Lit) error {
	bits := make([]string, len(cubes))
	var mass uint64
	for i, c := range cubes {
		var b strings.Builder
		for v, l := range c {
			if l.Var() != cnf.Var(v) {
				return fmt.Errorf("cube %v is not a path: literal %d on variable %d", c, v, l.Var())
			}
			b.WriteByte("01"[l&1])
		}
		bits[i] = b.String()
		mass += coverageFull >> len(c)
	}
	slices.Sort(bits)
	for i := 1; i < len(bits); i++ {
		if strings.HasPrefix(bits[i], bits[i-1]) {
			return fmt.Errorf("cubes %q and %q overlap", bits[i-1], bits[i])
		}
	}
	if mass != coverageFull {
		return fmt.Errorf("cubes %q cover %d of %d units", bits, mass, coverageFull)
	}
	return nil
}
