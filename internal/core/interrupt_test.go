package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
)

// endlessSliceClient boots a live client whose slice never ends on its
// own: no conflict bound worth the name, no memory cap to trip, no split
// timeout to fire. Whatever gets such a client out of a slice is an
// interrupt, so the tests below need no timing — only a deadline to fail
// by instead of hanging. inSlice blocks until the client's solver has
// made a decision, i.e. until Run is inside Solve.
func endlessSliceClient(t *testing.T, m *Master, threads int) (wg *sync.WaitGroup, inSlice func()) {
	t.Helper()
	var decided atomic.Bool
	opts := solver.DefaultOptions()
	opts.DecisionOverride = func(*solver.Solver) cnf.Lit {
		decided.Store(true)
		return cnf.NoLit // VSIDS decides
	}
	wg = serveClients(t, m, 1, ClientConfig{FreeMemBytes: 1 << 40, MinRunTime: time.Hour, Threads: threads, SolverOptions: &opts},
		func(cl *Client) { cl.slice = solver.Limits{MaxConflicts: 1 << 50} })
	return wg, func() {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !decided.Load(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("client never started solving")
			}
		}
	}
}

// joins fails the test unless wg drains within the deadline.
func joins(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: Client.Run still inside its slice after 30s", what)
	}
}

// Cancelling a job reaches a client in the middle of a slice: it stops,
// acks, and is free for the next job — which here can only get its verdict
// on that same client.
func TestCancelInterruptsTheRunningSlice(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			m, done := serveMaster(t, MasterConfig{})
			wg, inSlice := endlessSliceClient(t, m, threads)

			hard, err := m.Submit("hard", gen.Pigeonhole(13), 1)
			if err != nil {
				t.Fatal(err)
			}
			inSlice()
			if err := m.CancelJob(hard); err != nil {
				t.Fatal(err)
			}
			sat := satTestFormula(t)
			next, err := m.Submit("next", sat, 1)
			if err != nil {
				t.Fatal(err)
			}
			if snap := waitJobState(t, m, next, 30*time.Second); snap.Verdict != "SAT" || !modelSatisfies(sat, snap.Model) {
				t.Fatalf("job after the cancel: verdict %q", snap.Verdict)
			}
			m.Shutdown()
			<-done
			joins(t, wg, "after the next job")
		})
	}
}

// Shutdown reaches a client in the middle of a slice: Run returns and
// joins its goroutines instead of finishing the quantum first.
func TestShutdownInterruptsTheRunningSlice(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			m, done := serveMaster(t, MasterConfig{})
			wg, inSlice := endlessSliceClient(t, m, threads)
			if _, err := m.Submit("hard", gen.Pigeonhole(13), 1); err != nil {
				t.Fatal(err)
			}
			inSlice()
			m.Shutdown()
			<-done
			joins(t, wg, "after Shutdown")
		})
	}
}

// Only the kinds somebody is blocked on cut a slice short; clause shares
// and base formulas keep to the slice boundary.
func TestInterruptsOnlyForControlKinds(t *testing.T) {
	for _, tc := range []struct {
		msg  comm.Message
		want bool
	}{
		{comm.SplitAssign{}, true},
		{comm.StopWork{}, true},
		{comm.Shutdown{}, true},
		{comm.ShareClauses{}, false},
		{comm.BaseProblem{}, false},
		{comm.SplitPayload{}, false},
	} {
		if got := interrupts(tc.msg); got != tc.want {
			t.Errorf("interrupts(%s) = %v, want %v", tc.msg.Kind(), got, tc.want)
		}
	}
}

// The transfer-time proxy belongs to the subproblem it was measured on. A
// client that received a heavy split payload and is later handed a root
// (nothing to transfer) must ask for help at the bare floor, not at twice
// the old payload's proxy.
func TestRootAssignmentForgetsThePreviousTransferTime(t *testing.T) {
	now := 0.0
	var sent []comm.Message
	c, err := newClient(ClientConfig{FreeMemBytes: 1 << 40}, func() float64 { return now },
		func(_ comm.SplitPeer, msg comm.Message) error {
			sent = append(sent, msg)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	f := gen.Pigeonhole(9)
	c.handle(comm.BaseProblem{Formula: f})
	splitRequests := func() int {
		n := 0
		for _, msg := range sent {
			if _, ok := msg.(comm.SplitRequest); ok {
				n++
			}
		}
		return n
	}

	// A split subproblem with the full 10 k learnt clauses: proxy 0.16 s, so
	// the timeout is 0.32 s and the 100 ms floor does not apply.
	learnts := make([]cnf.Clause, 10000)
	for i := range learnts {
		learnts[i] = cnf.NewClause(1, 2, 3)
	}
	c.handle(comm.SplitPayload{SplitID: 1, Subs: []*solver.Subproblem{{
		NumVars: f.NumVars, Assumptions: []cnf.Lit{cnf.LitFromDIMACS(1)}, Learnts: learnts,
		Cube: []cnf.Lit{cnf.LitFromDIMACS(1)}}}})
	if !c.busy() {
		t.Fatalf("split subproblem did not start: %v", sent)
	}
	now += 0.2
	if err := c.finishSlice(solver.Result{}); err != nil {
		t.Fatal(err)
	}
	if n := splitRequests(); n != 0 {
		t.Fatalf("asked for a split %d times at 0.2 s of a 0.32 s timeout", n)
	}
	c.handle(comm.StopWork{Job: 0, Seq: 1})
	if c.busy() {
		t.Fatal("StopWork left the client busy")
	}

	// The root of the next job on the same client: floor only.
	c.handle(comm.SplitPayload{SplitID: 2, Subs: []*solver.Subproblem{{NumVars: f.NumVars}}})
	if !c.busy() {
		t.Fatalf("root subproblem did not start: %v", sent)
	}
	now += liveSplitFloor.Seconds() + 0.01
	if err := c.finishSlice(solver.Result{}); err != nil {
		t.Fatal(err)
	}
	if n := splitRequests(); n != 1 {
		t.Fatalf("%d split requests just past the floor on a root assignment, want 1 (transfer time carried over?)", n)
	}
}
