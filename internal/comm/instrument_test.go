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
		if err := client.Send(StatusReport{Deltas: SolverDeltas{Conflicts: 10}}); err != nil {
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
		want += WireSize(StatusReport{Deltas: SolverDeltas{Conflicts: 10}})
	}
	if kt.BytesSent != want || kt.BytesRecv != want {
		t.Errorf("status bytes sent=%d recv=%d, want exact frame total %d", kt.BytesSent, kt.BytesRecv, want)
	}
}

// TestRecvBytesAreTheFrameRead fixes what gridsat_comm_bytes_total{dir=recv}
// means on a fixed exchange: every kind's fixture, untraced and traced, over
// a loopback TCP pair. Recv counts the frame the connection read — it no
// longer encodes each received message again to learn its size — and that
// must be, kind by kind, the bytes the sender counted as written. The
// total is a literal, the fixture's frames as the codec writes them, so the
// metric reads the same on both sides of a change to how it is counted.
func TestRecvBytesAreTheFrameRead(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
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

	want := map[string]int64{}
	for _, msg := range allMessages() {
		for _, out := range []Message{msg, Traced{Info: TraceInfo{Lamport: 1 << 20, Parent: 300}, Msg: msg}} {
			e, err := EncodeMessage(out)
			if err != nil {
				t.Fatal(err)
			}
			want[msg.Kind()] += int64(e.WireLen())
			if err := client.Send(out); err != nil {
				t.Fatal(err)
			}
			got, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, out) {
				t.Errorf("%s arrived as %+v", msg.Kind(), got)
			}
		}
	}
	if len(want) != len(kinds) {
		t.Fatalf("exchanged %d kinds, the protocol has %d", len(want), len(kinds))
	}
	totals := m.Totals()
	for k, n := range want {
		if kt := totals.PerKind[k]; kt.BytesSent != n || kt.BytesRecv != n || kt.MsgsSent != 2 || kt.MsgsRecv != 2 {
			t.Errorf("%s: %+v, want 2 messages and %d bytes each way", k, kt, n)
		}
	}
	const pinned = 547
	snap := reg.Snapshot()
	for _, dir := range []string{"send", "recv"} {
		if got := snap.CounterValue("gridsat_comm_bytes_total", obs.L("dir", dir)); got != pinned {
			t.Errorf("gridsat_comm_bytes_total{dir=%s} = %d, want %d", dir, got, pinned)
		}
	}
}
