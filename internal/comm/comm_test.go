package comm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/solver"
)

// allMessages is the codec fixture: exactly one value of every protocol
// kind, with every field — nested ones included — set to something other
// than its zero value (TestFixtureSetsEveryField enforces that), so a
// structural round-trip comparison notices any field the codec drops.
// Learned-clause batches are given in the clause block's canonical order
// and so compare equal after a round trip; the base formula is
// deliberately not canonical, because it must travel verbatim.
func allMessages() []Message {
	f := cnf.NewFormula(5)
	f.Add(4, -2, 1).Add(-5, 3, 3).Add(2).Add(1, -4)
	f.Comment = "fixture"
	cube := []cnf.Lit{cnf.NegLit(3), cnf.PosLit(0), cnf.NegLit(1)}
	sub := func(depth int) *solver.Subproblem {
		return &solver.Subproblem{
			NumVars:     5,
			Cube:        cube[:depth],
			Assumptions: []cnf.Lit{cnf.NegLit(3), cnf.PosLit(0), cnf.PosLit(2)},
			Learnts:     canonicalize([]cnf.Clause{cnf.NewClause(2, 3), cnf.NewClause(-1, 4, 5), cnf.NewClause(-2)}, nil),
		}
	}
	return []Message{
		Register{Addr: "a:1", HostName: "h", FreeMemBytes: 1 << 30, SpeedHint: 1.5, Fanout: 3},
		RegisterAck{ClientID: 3, Rejected: true, Reason: "below minimum memory"},
		BaseProblem{Formula: f, Job: 2},
		SplitRequest{ClientID: 2, Why: SplitTimeout},
		SplitAssign{SplitID: 9, Peers: []SplitPeer{{ID: 4, Addr: "b:2"}, {ID: 5, Addr: "b:3"}}},
		SplitPayload{SplitID: 9, Job: 2, Subs: []*solver.Subproblem{sub(1), sub(2)}},
		SplitDone{SplitID: 9, OK: true, Err: "boom", Cube: cube[:2], Used: 1,
			Served: [][]cnf.Lit{{cnf.PosLit(4), cnf.NegLit(2)}}, Leftover: []*solver.Subproblem{sub(3)}},
		ShareClauses{From: 1, Job: 2, Clauses: canonicalize([]cnf.Clause{cnf.NewClause(-1, 2), cnf.NewClause(3)}, nil)},
		Solved{Status: solver.StatusSAT, Model: cnf.Assignment{cnf.True, cnf.False, cnf.Undef, cnf.True},
			Worker: 1, Job: 2},
		Shutdown{},
		Stopped{Job: 2, Seq: 5},
		StopWork{Job: 2, Seq: 6},
		StatusReport{MemBytes: 42, Learnts: 7, Job: 2,
			Deltas: SolverDeltas{Decisions: 1, Conflicts: 2, Propagations: 1 << 40, Implications: 4, Learned: 5,
				ReclaimedBytes: -6, Imported: 7, ImportedImplications: 8, ImportedResolutions: 9, ImportedUseful: 10},
			Workers: []WorkerReport{
				{Worker: 1, Profile: "pathfinder", Conflicts: 50, Propagations: 900, Restarts: 3, Learnts: 4, MemBytes: 20},
				{Worker: 2, Profile: "luby-neg", Conflicts: 49, Propagations: 800, Restarts: 2, Learnts: 3, MemBytes: 22},
			}},
	}
}

// unsetFields lists the paths under v that hold a zero value. Slices of
// scalars only need to be non-empty: literal 0 and truth value Undef are
// legitimate elements.
func unsetFields(v reflect.Value, path string) []string {
	switch v.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, unsetFields(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
		return out
	case reflect.Pointer:
		if !v.IsNil() {
			return unsetFields(v.Elem(), path)
		}
	case reflect.Slice:
		var out []string
		switch v.Type().Elem().Kind() {
		case reflect.Struct, reflect.Pointer, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				out = append(out, unsetFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
			}
		}
		if v.Len() > 0 {
			return out
		}
	default:
		if !v.IsZero() {
			return nil
		}
	}
	return []string{path}
}

// TestFixtureSetsEveryField is what makes the round-trip tests a complete
// check of the codec: there is one fixture per row of the kind table, and
// a field added to any message struct fails here until the fixture sets
// it — after which the structural round trip fails until the kind's field
// list carries it.
func TestFixtureSetsEveryField(t *testing.T) {
	have := map[reflect.Type]bool{}
	for _, m := range allMessages() {
		typ := reflect.TypeOf(m)
		if have[typ] {
			t.Errorf("two fixtures for %s", typ)
		}
		have[typ] = true
		if m.Kind() == "" {
			t.Errorf("%s has an empty Kind", typ)
		}
		for _, path := range unsetFields(reflect.ValueOf(m), typ.Name()) {
			t.Errorf("fixture leaves %s zero", path)
		}
	}
	if len(kinds) != 13 || len(kindByID) != len(kinds) || len(kindByType) != len(kinds) {
		t.Fatalf("kind table: %d rows, %d distinct IDs, %d distinct types; want 13 of each",
			len(kinds), len(kindByID), len(kindByType))
	}
	for _, k := range kinds {
		if !have[k.typ] {
			t.Errorf("no fixture for kind 0x%02x (%s)", k.id, k.typ)
		}
		if k.id == 0 || k.id&frameTracedFlag != 0 {
			t.Errorf("kind %s has unusable frame ID 0x%02x", k.typ, k.id)
		}
	}
}

// roundtrip sends the whole fixture a→b and requires every message to
// arrive structurally identical.
func roundtrip(t *testing.T, a, b Conn) {
	t.Helper()
	msgs := allMessages()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, m := range msgs {
			if err := a.Send(m); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s mangled in transit:\n got %+v\nwant %+v", want.Kind(), got, want)
		}
	}
	wg.Wait()
}

func TestTCPRoundtrip(t *testing.T) {
	tr := TCPTransport{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		done <- c
	}()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-done
	defer client.Close()
	defer server.Close()
	roundtrip(t, client, server)
	roundtrip(t, server, client) // and the other direction
}

func TestInprocRoundtrip(t *testing.T) {
	tr := NewInprocTransport()
	l, err := tr.Listen("master")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(m); err != nil { // echo
				return
			}
		}
	}()
	c, err := tr.Dial("master")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, m := range allMessages() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		back, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind() != m.Kind() {
			t.Fatalf("echo kind %q != %q", back.Kind(), m.Kind())
		}
	}
}

func TestInprocAutoAddr(t *testing.T) {
	tr := NewInprocTransport()
	l1, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr() == l2.Addr() || l1.Addr() == "" {
		t.Fatalf("auto addrs: %q vs %q", l1.Addr(), l2.Addr())
	}
}

func TestInprocDuplicateBind(t *testing.T) {
	tr := NewInprocTransport()
	if _, err := tr.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("x"); err == nil {
		t.Fatal("duplicate bind accepted")
	}
}

func TestInprocDialUnknown(t *testing.T) {
	tr := NewInprocTransport()
	if _, err := tr.Dial("ghost"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
}

func TestInprocListenerCloseFreesAddr(t *testing.T) {
	tr := NewInprocTransport()
	l, _ := tr.Listen("x")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Dial("x"); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
	if _, err := tr.Listen("x"); err != nil {
		t.Fatalf("rebinding closed address failed: %v", err)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := NewPipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv on closed pipe returned a message")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := a.Send(Shutdown{}); err == nil {
		t.Fatal("Send on closed pipe succeeded")
	}
}

func TestPipeDrainsQueuedAfterClose(t *testing.T) {
	a, b := NewPipe()
	if err := a.Send(Shutdown{}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	m, err := b.Recv()
	if err != nil || m.Kind() != "shutdown" {
		t.Fatalf("queued message lost after close: %v %v", m, err)
	}
}

func TestSplitReasonString(t *testing.T) {
	if SplitMemoryPressure.String() != "memory-pressure" || SplitTimeout.String() != "timeout" {
		t.Error("SplitReason strings wrong")
	}
}

func TestMessageKindsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range allMessages() {
		if seen[m.Kind()] {
			t.Fatalf("duplicate kind %q", m.Kind())
		}
		seen[m.Kind()] = true
	}
}

func TestConcurrentSendsOneConn(t *testing.T) {
	tr := TCPTransport{}
	l, _ := tr.Listen("127.0.0.1:0")
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	defer client.Close()
	defer server.Close()

	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/4; j++ {
				if err := client.Send(StatusReport{}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if _, err := server.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	wg.Wait()
}
