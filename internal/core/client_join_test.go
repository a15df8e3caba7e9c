package core

import (
	"runtime"
	"testing"
	"time"

	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
)

// settleGoroutines waits for the goroutine count to come back to base. A
// joined goroutine has passed its WaitGroup.Done but may not have left
// the scheduler yet, hence the short grace; a leaked one never leaves.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want the baseline %d; still running:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientRunJoins: every goroutine a run starts — the master's loops,
// each client's masterLoop, peerLoop and per-connection readers — has
// exited by the time Solve returns, run after run.
func TestClientRunJoins(t *testing.T) {
	f := gen.Pigeonhole(6)
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		res, err := Solve(f, quickJob(3))
		if err != nil || res.Status != solver.StatusUNSAT {
			t.Fatalf("run %d: %v %v", i, res.Status, err)
		}
	}
	settleGoroutines(t, base)
}

// TestClientRunJoinsBlockedLoops is the case a returned Run used to leave
// behind for good: masterLoop stuck pushing into a full control queue
// nobody drains any more, and a P2P reader waiting on a peer that
// connected and never sent. Run must unblock, close and wait for both.
func TestClientRunJoinsBlockedLoops(t *testing.T) {
	tr := comm.NewInprocTransport()
	ml, err := tr.Listen("join-master")
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	base := runtime.NumGoroutine()

	// The master acks the registration, then sends Shutdown followed by more
	// traffic than the client's queues hold, until the client hangs up.
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		conn, err := ml.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Recv(); err != nil {
			return
		}
		_ = conn.Send(comm.RegisterAck{ClientID: 1})
		_ = conn.Send(comm.Shutdown{})
		for conn.Send(comm.ShareClauses{From: 2}) == nil {
		}
	}()
	cl, err := NewClient(ClientConfig{Transport: tr, MasterAddr: "join-master", FreeMemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := tr.Dial(cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// Run has not started, so the flood backs up: the control queue fills
	// and masterLoop blocks on the next push.
	for deadline := time.Now().Add(5 * time.Second); len(cl.control) < cap(cl.control); {
		if time.Now().After(deadline) {
			t.Fatalf("control queue holds %d of %d", len(cl.control), cap(cl.control))
		}
		time.Sleep(time.Millisecond)
	}

	within := func(what string, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not finish", what)
		}
	}
	ran := make(chan struct{})
	go func() { defer close(ran); _ = cl.Run() }()
	within("Run (Shutdown is first in its queue)", ran)
	within("the master's flood (Run closes the connection)", flooded)
	hungUp := make(chan struct{})
	go func() { defer close(hungUp); _, _ = peer.Recv() }()
	within("the silent peer's connection being closed", hungUp)
	settleGoroutines(t, base)
}
