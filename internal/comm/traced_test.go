package comm

import (
	"sync"
	"testing"

	"gridsat/internal/solver"
)

func TestTracedEnvelopeBinaryRoundtrip(t *testing.T) {
	inner := StatusReport{Depth: 3, Deltas: SolverDeltas{Conflicts: 42}}
	in := Traced{Info: TraceInfo{Lamport: 1234, Parent: 77}, Msg: inner}
	e, err := EncodeMessage(in)
	if err != nil {
		t.Fatal(err)
	}
	if e.frame[0]&frameTracedFlag == 0 {
		t.Fatalf("frame byte %#x missing traced flag", e.frame[0])
	}
	got, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	msg, ti := Unwrap(got)
	if ti != in.Info {
		t.Fatalf("trace info %+v, want %+v", ti, in.Info)
	}
	out, ok := msg.(StatusReport)
	if !ok || out.Depth != 3 || out.Deltas.Conflicts != 42 {
		t.Fatalf("payload mangled: %+v", msg)
	}
}

func TestTracedEnvelopeOverTCP(t *testing.T) {
	tr := TCPTransport{}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
	defer client.Close()
	server := <-accepted
	defer server.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Traced and untraced frames interleave on one connection: the
		// trace flag is per frame, not per session.
		_ = client.Send(Traced{
			Info: TraceInfo{Lamport: 9, Parent: 2},
			Msg:  SplitRequest{ClientID: 1, Why: SplitTimeout},
		})
		_ = client.Send(SplitRequest{ClientID: 1, Why: SplitMemoryPressure})
		_ = client.Send(Traced{
			Info: TraceInfo{Lamport: 11},
			Msg:  Solved{Status: solver.StatusUNSAT},
		})
	}()

	first, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	msg, ti := Unwrap(first)
	if ti.Lamport != 9 || ti.Parent != 2 {
		t.Fatalf("first frame trace info %+v", ti)
	}
	if req, ok := msg.(SplitRequest); !ok || req.Why != SplitTimeout {
		t.Fatalf("first payload %+v", msg)
	}
	second, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, ti := Unwrap(second); ti != (TraceInfo{}) {
		t.Fatalf("untraced frame grew trace info %+v", ti)
	}
	third, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	msg, ti = Unwrap(third)
	if ti.Lamport != 11 || ti.Parent != 0 {
		t.Fatalf("third frame trace info %+v", ti)
	}
	if sv, ok := msg.(Solved); !ok || sv.Status != solver.StatusUNSAT {
		t.Fatalf("third payload %+v", msg)
	}
	wg.Wait()
}

func TestTracedKindAndWireSize(t *testing.T) {
	w := Traced{Info: TraceInfo{Lamport: 5}, Msg: Shutdown{}}
	if w.Kind() != "shutdown" {
		t.Fatalf("kind = %q", w.Kind())
	}
	plain := WireSize(Shutdown{})
	traced := WireSize(w)
	// Envelope cost: two uvarints (here 1 byte each) on top of the frame.
	if traced <= plain || traced > plain+10 {
		t.Fatalf("traced wire size %d vs plain %d: envelope overhead wrong", traced, plain)
	}
}
