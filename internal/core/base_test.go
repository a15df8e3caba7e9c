package core

import (
	"slices"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/solver"
)

// TestOneBaseFormulaPerClient steps a master and one client into each
// other's outboxes while the client serves jobs 1, 2 and 3 and then job 1
// again: the client holds at most two formulas at any time (the one it is
// solving and the one it last received), and the master ships job 1's
// formula a second time when job 1 comes back to it.
func TestOneBaseFormulaPerClient(t *testing.T) {
	var toClient, toMaster []comm.Message
	var bases []int
	m := newMaster(MasterConfig{}, func() float64 { return 1 },
		func(_ int, msg comm.Message) {
			if b, ok := msg.(comm.BaseProblem); ok {
				bases = append(bases, b.Job)
			}
			toClient = append(toClient, msg)
		}, func(BundleSpec) {})
	cl, err := newClient(ClientConfig{}, func() float64 { return 1 },
		func(_ comm.SplitPeer, msg comm.Message) error {
			toMaster = append(toMaster, msg)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	cl.addr = "c1"
	id := m.connect()
	formulas := map[int]*cnf.Formula{}
	submit := func(priority int) int {
		t.Helper()
		f := cnf.NewFormula(len(formulas) + 1) // unsatisfiable, and each job's its own
		f.Add(1)
		f.Add(-1)
		jid, err := m.submit("", f, priority)
		if err != nil {
			t.Fatal(err)
		}
		formulas[jid] = f
		return jid
	}
	// pump delivers both outboxes and lets the client solve until the two
	// machines have nothing left to say to each other.
	pump := func() {
		t.Helper()
		for len(toClient)+len(toMaster) > 0 || cl.busy() {
			for len(toMaster) > 0 {
				msg := toMaster[0]
				toMaster = toMaster[1:]
				m.handle(from(id, msg))
			}
			for len(toClient) > 0 {
				msg := toClient[0]
				toClient = toClient[1:]
				cl.handle(msg)
			}
			if cl.busy() {
				if err := cl.solveSlice(); err != nil {
					t.Fatal(err)
				}
			}
			held := map[*cnf.Formula]bool{}
			for _, f := range []*cnf.Formula{cl.base, cl.cached} {
				if f != nil {
					held[f] = true
				}
			}
			if len(held) > 2 {
				t.Fatalf("client holds %d formulas", len(held))
			}
		}
	}

	j1 := submit(1)
	if err := cl.register(); err != nil {
		t.Fatal(err)
	}
	// Deliver the registration and job 1's root, and hold the root there:
	// the client starts it but has not solved it when two more important
	// jobs arrive and job 1 gets a second subproblem to hand out.
	m.handle(from(id, toMaster[0]))
	toMaster = toMaster[:0]
	for _, msg := range toClient {
		cl.handle(msg)
	}
	toClient = toClient[:0]
	j2, j3 := submit(2), submit(2)
	m.jobs[j1].subBacklog = append(m.jobs[j1].subBacklog,
		backlogSub{sub: &solver.Subproblem{NumVars: 1, Depth: 1}, origin: fromSplit, job: j1})
	pump()

	if want := []int{j1, j2, j3, j1}; !slices.Equal(bases, want) {
		t.Fatalf("base formulas sent for jobs %v, want %v", bases, want)
	}
	for _, jid := range []int{j1, j2, j3} {
		if st := m.jobs[jid].status; st != solver.StatusUNSAT {
			t.Fatalf("job %d ended %v, want UNSAT", jid, st)
		}
	}
	if cl.base != formulas[j1] || cl.cached != formulas[j1] {
		t.Fatalf("client ends holding %p and %p, want only job %d's formula %p", cl.base, cl.cached, j1, formulas[j1])
	}
}
