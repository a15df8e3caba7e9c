package core

import (
	"fmt"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/trace"
)

// TestAdmissionControl covers both axes: the client-count-derived active
// cap and the formula memory budget.
func TestAdmissionControl(t *testing.T) {
	// Client-count cap: 10 clients → 10 active jobs max.
	a := Admission{}
	if err := a.Admit(1000, 9, 0, 10); err != nil {
		t.Fatalf("under the cap rejected: %v", err)
	}
	if err := a.Admit(1000, 10, 0, 10); err == nil {
		t.Fatal("11th active job admitted with 10 clients")
	}
	// The DefaultMaxActive floor lets an empty cluster queue work.
	if err := a.Admit(1000, DefaultMaxActive-1, 0, 0); err != nil {
		t.Fatalf("queue below floor rejected: %v", err)
	}
	if err := a.Admit(1000, DefaultMaxActive, 0, 0); err == nil {
		t.Fatal("queue above floor admitted")
	}
	// Explicit cap overrides the derived one.
	b := Admission{MaxActive: 2}
	if err := b.Admit(1000, 2, 0, 50); err == nil {
		t.Fatal("explicit MaxActive ignored")
	}
	// Memory budget.
	c := Admission{MaxActive: 100, MemBudgetBytes: 10_000}
	if err := c.Admit(4000, 1, 5000, 10); err != nil {
		t.Fatalf("in-budget job rejected: %v", err)
	}
	if err := c.Admit(6000, 1, 5000, 10); err == nil {
		t.Fatal("over-budget job admitted")
	}
}

func TestFormulaMemBytes(t *testing.T) {
	if FormulaMemBytes(nil) != 0 {
		t.Fatal("nil formula has a footprint")
	}
	small := FormulaMemBytes(gen.Pigeonhole(4))
	big := FormulaMemBytes(gen.Pigeonhole(10))
	if small <= 0 || big <= small {
		t.Fatalf("footprints not monotone: ph4=%d ph10=%d", small, big)
	}
}

func TestJobLifecycleStates(t *testing.T) {
	for s, want := range map[JobState]string{
		JobQueued: "queued", JobRunning: "running", JobDone: "done", JobCancelled: "cancelled",
	} {
		if s.String() != want {
			t.Errorf("%d renders as %q, want %q", s, s, want)
		}
	}
	for _, s := range []JobState{JobQueued, JobRunning} {
		if !s.Active() {
			t.Errorf("%v should be active", s)
		}
	}
	for _, s := range []JobState{JobDone, JobCancelled} {
		if s.Active() {
			t.Errorf("%v should be terminal", s)
		}
	}
	j := &masterJob{SubmittedAt: 2, StartedAt: 3, FinishedAt: 10, State: JobDone}
	if snap := j.snapshot(jobLoad{}); snap.QueueWaitSec != 1 || snap.SolveSec != 7 || snap.TurnaroundSec != 8 {
		t.Fatalf("queue wait %v, solve %v, turnaround %v; want 1, 7, 8", snap.QueueWaitSec, snap.SolveSec, snap.TurnaroundSec)
	}
	j.State, j.FinishedAt = JobRunning, 0
	if snap := j.snapshot(jobLoad{}); snap.SolveSec != 0 || snap.TurnaroundSec != 0 {
		t.Fatal("unfinished job has a solve time or a turnaround")
	}
}

// TestIdleClientsServeHigherPriorityFirst: an idle client serves the
// highest-priority job that has queued work for it, jobs of equal priority
// in submission order, and nothing is taken from a busy client when a more
// important job arrives.
func TestIdleClientsServeHigherPriorityFirst(t *testing.T) {
	type sent struct {
		to  int
		msg comm.Message
	}
	var outbox []sent
	m := newMaster(MasterConfig{Flight: trace.NewFlight(nil)}, func() float64 { return 1 },
		func(to int, msg comm.Message) { outbox = append(outbox, sent{to, msg}) }, func(BundleSpec) {})
	step := func(what string, ev masterEvent) {
		t.Helper()
		if done, err := m.handle(ev); done || err != nil {
			t.Fatalf("%s: done=%v err=%v", what, done, err)
		}
	}
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	submit := func(priority int) int {
		t.Helper()
		var id int
		step("submit", masterEvent{apply: func() bool {
			var err error
			if id, err = m.submit("", f, priority); err != nil {
				t.Fatal(err)
			}
			return false
		}})
		return id
	}
	join := func() *masterClient {
		t.Helper()
		id := m.connect()
		step("register", from(id, comm.Register{Addr: fmt.Sprintf("c%d", id), FreeMemBytes: 1 << 20, SpeedHint: 1}))
		return m.clients[id]
	}

	// A priority-1 job holds the only client, which asks for help.
	a := join()
	low := submit(1)
	step("root accepted", from(a.id, comm.SplitDone{OK: true}))
	step("split request", from(a.id, comm.SplitRequest{ClientID: a.id}))
	if !a.busy || a.job != low || m.state().Backlog != 1 {
		t.Fatalf("setup: client %d busy=%v on job %d, split backlog %d", a.id, a.busy, a.job, m.state().Backlog)
	}

	// Two priority-2 jobs arrive; the busy client is left alone.
	outbox = nil
	high, twin := submit(2), submit(2)
	for _, s := range outbox {
		if s.to == a.id {
			t.Fatalf("busy client %d of job %d was sent %s when jobs %d and %d arrived", a.id, low, s.msg.Kind(), high, twin)
		}
	}
	if !a.busy || a.stopping || a.job != low {
		t.Fatalf("busy client %d: busy=%v stopping=%v job=%d, want still on job %d", a.id, a.busy, a.stopping, a.job, low)
	}

	// Each new idle client goes to the first job in priority, then
	// submission, order that has queued work for it.
	for _, want := range []struct {
		job  int
		why  string
		root bool // handed the job's root; else reserved for its split
	}{
		{high, "priority 2 before job 1's split request, and before its equal submitted later", true},
		{twin, "the other priority-2 job before the priority-1 one", true},
		{low, "the priority-1 split request once the priority-2 jobs have their clients", false},
	} {
		c := join()
		if c.job != want.job || c.busy != want.root || c.reserved == want.root {
			t.Fatalf("idle client %d went to job %d (busy=%v reserved=%v), want job %d: %s",
				c.id, c.job, c.busy, c.reserved, want.job, want.why)
		}
	}
}
