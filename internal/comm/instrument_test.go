package comm

import (
	"reflect"
	"testing"

	"gridsat/internal/obs"
)

// TestInstrumentedTransportCounts drives every message kind through an
// instrumented in-process transport and checks per-kind message and byte
// counters on both directions — and that what arrives went through the
// codec: an equal value, not the sender's own.
func TestInstrumentedTransportCounts(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tr := Instrument(NewInprocTransport(), m)
	l, err := tr.Listen("master")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	client, err := tr.Dial("master")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted

	msgs := allMessages()
	for _, msg := range msgs {
		if err := client.Send(msg); err != nil {
			t.Fatalf("send %s: %v", msg.Kind(), err)
		}
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", msg.Kind(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s mangled: got %+v, want %+v", msg.Kind(), got, msg)
		}
		if bp, ok := got.(BaseProblem); ok && bp.Formula == msg.(BaseProblem).Formula {
			t.Error("instrumented pipe passed the formula by reference; it must carry a frame")
		}
	}

	totals := m.Totals()
	if totals.MsgsSent != int64(len(msgs)) || totals.MsgsRecv != int64(len(msgs)) {
		t.Fatalf("msgs sent=%d recv=%d, want %d each", totals.MsgsSent, totals.MsgsRecv, len(msgs))
	}
	for _, msg := range msgs {
		kt, ok := totals.PerKind[msg.Kind()]
		if !ok {
			t.Errorf("no counters for kind %q", msg.Kind())
			continue
		}
		if kt.MsgsSent < 1 || kt.MsgsRecv < 1 {
			t.Errorf("%s: msgs sent=%d recv=%d", msg.Kind(), kt.MsgsSent, kt.MsgsRecv)
		}
		if kt.BytesSent <= 0 || kt.BytesRecv <= 0 {
			t.Errorf("%s: zero byte count (sent=%d recv=%d)", msg.Kind(), kt.BytesSent, kt.BytesRecv)
		}
	}
	if totals.BytesSent <= 0 || totals.BytesSent != totals.BytesRecv {
		t.Errorf("aggregate bytes sent=%d recv=%d", totals.BytesSent, totals.BytesRecv)
	}

	// The registry carries the same numbers for /metrics exposition.
	snap := reg.Snapshot()
	if got := snap.CounterValue("gridsat_comm_msgs_total", obs.L("dir", "send")); got != int64(len(msgs)) {
		t.Errorf("registry msgs_total{dir=send} = %d, want %d", got, len(msgs))
	}
	if got := snap.CounterValue("gridsat_comm_conns_total"); got != 2 {
		t.Errorf("conns_total = %d, want 2 (one dial + one accept)", got)
	}
}

// TestInstrumentOverTCP checks the wrapper composes with the real TCP
// transport and that byte counters report exact frame sizes — what
// actually crossed the wire, not an estimate.
func TestInstrumentOverTCP(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	tr := Instrument(TCPTransport{}, m)
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

	for i := 0; i < 3; i++ {
		if err := client.Send(StatusReport{ClientID: i, Deltas: SolverDeltas{Conflicts: 10}}); err != nil {
			t.Fatal(err)
		}
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	kt := m.Totals().PerKind["status"]
	if kt.MsgsSent != 3 || kt.BytesSent <= 0 {
		t.Fatalf("status totals: %+v", kt)
	}
	// Counters must report the exact frame bytes written, per message.
	var want int64
	for i := 0; i < 3; i++ {
		want += WireSize(StatusReport{ClientID: i, Deltas: SolverDeltas{Conflicts: 10}})
	}
	if kt.BytesSent != want || kt.BytesRecv != want {
		t.Errorf("status bytes sent=%d recv=%d, want exact frame total %d", kt.BytesSent, kt.BytesRecv, want)
	}
}
