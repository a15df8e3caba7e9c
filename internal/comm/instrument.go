package comm

import (
	"sort"
	"sync"

	"gridsat/internal/obs"
)

// Metrics aggregates per-message-kind traffic counters for instrumented
// transports. All counters also live in the supplied obs.Registry, so a
// master's /metrics endpoint exposes them as
//
//	gridsat_comm_msgs_total{dir="send",kind="split-payload"} 12
//	gridsat_comm_bytes_total{dir="recv",kind="share-clauses"} 80640
//	gridsat_comm_conns_total{role="dial"} 5
//
// Byte counts are exact frame sizes from the wire codec: every send is
// encoded once and that frame's length is what is counted and written.
type Metrics struct {
	reg   *obs.Registry
	dials *obs.Counter
	accps *obs.Counter

	mu      sync.RWMutex
	perKind map[string]*kindCounters
}

type kindCounters struct {
	sentMsgs, recvMsgs   *obs.Counter
	sentBytes, recvBytes *obs.Counter
}

// NewMetrics registers the comm counter families in reg and returns the
// handle that instrumented transports update.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		reg:     reg,
		dials:   reg.Counter("gridsat_comm_conns_total", "connections opened by role", obs.L("role", "dial")),
		accps:   reg.Counter("gridsat_comm_conns_total", "connections opened by role", obs.L("role", "accept")),
		perKind: map[string]*kindCounters{},
	}
}

func (m *Metrics) kind(k string) *kindCounters {
	m.mu.RLock()
	kc := m.perKind[k]
	m.mu.RUnlock()
	if kc != nil {
		return kc
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if kc = m.perKind[k]; kc != nil {
		return kc
	}
	kc = &kindCounters{
		sentMsgs:  m.reg.Counter("gridsat_comm_msgs_total", "protocol messages by kind and direction", obs.L("kind", k), obs.L("dir", "send")),
		recvMsgs:  m.reg.Counter("gridsat_comm_msgs_total", "protocol messages by kind and direction", obs.L("kind", k), obs.L("dir", "recv")),
		sentBytes: m.reg.Counter("gridsat_comm_bytes_total", "encoded message bytes by kind and direction", obs.L("kind", k), obs.L("dir", "send")),
		recvBytes: m.reg.Counter("gridsat_comm_bytes_total", "encoded message bytes by kind and direction", obs.L("kind", k), obs.L("dir", "recv")),
	}
	m.perKind[k] = kc
	return kc
}

// KindTotals is the traffic of one message kind in a Totals summary.
type KindTotals struct {
	MsgsSent  int64 `json:"msgs_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesSent int64 `json:"bytes_sent"`
	BytesRecv int64 `json:"bytes_recv"`
}

// Totals is a point-in-time traffic summary for run reports.
type Totals struct {
	MsgsSent  int64                 `json:"msgs_sent"`
	MsgsRecv  int64                 `json:"msgs_recv"`
	BytesSent int64                 `json:"bytes_sent"`
	BytesRecv int64                 `json:"bytes_recv"`
	PerKind   map[string]KindTotals `json:"per_kind,omitempty"`
}

// Totals snapshots the aggregate and per-kind counters.
func (m *Metrics) Totals() Totals {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t := Totals{PerKind: make(map[string]KindTotals, len(m.perKind))}
	kinds := make([]string, 0, len(m.perKind))
	for k := range m.perKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		kc := m.perKind[k]
		kt := KindTotals{
			MsgsSent:  kc.sentMsgs.Value(),
			MsgsRecv:  kc.recvMsgs.Value(),
			BytesSent: kc.sentBytes.Value(),
			BytesRecv: kc.recvBytes.Value(),
		}
		t.PerKind[k] = kt
		t.MsgsSent += kt.MsgsSent
		t.MsgsRecv += kt.MsgsRecv
		t.BytesSent += kt.BytesSent
		t.BytesRecv += kt.BytesRecv
	}
	return t
}

// Instrument wraps t so every connection it produces counts messages and
// encoded bytes per kind into m. A nil m returns t unchanged.
func Instrument(t Transport, m *Metrics) Transport {
	if m == nil {
		return t
	}
	return &instrumentedTransport{inner: t, m: m}
}

type instrumentedTransport struct {
	inner Transport
	m     *Metrics
}

func (t *instrumentedTransport) Listen(addr string) (Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &instrumentedListener{inner: l, m: t.m}, nil
}

func (t *instrumentedTransport) Dial(addr string) (Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.m.dials.Inc()
	return newInstrumentedConn(c, t.m), nil
}

type instrumentedListener struct {
	inner Listener
	m     *Metrics
}

func (l *instrumentedListener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	l.m.accps.Inc()
	return newInstrumentedConn(c, l.m), nil
}

func (l *instrumentedListener) Close() error { return l.inner.Close() }
func (l *instrumentedListener) Addr() string { return l.inner.Addr() }

// sizedRecver is what this package's own connections add to Conn: a Recv
// that also reports the length of the frame it consumed, so counting the
// bytes received does not mean encoding the message again.
type sizedRecver interface {
	recvFrame() (m Message, frameLen int, err error)
}

type instrumentedConn struct {
	inner Conn
	sized sizedRecver // inner, when it can report frame lengths; else nil
	m     *Metrics
}

func newInstrumentedConn(c Conn, m *Metrics) *instrumentedConn {
	sized, _ := c.(sizedRecver)
	return &instrumentedConn{inner: c, sized: sized, m: m}
}

// Send encodes m once and ships the frame, so the bytes counted are the
// bytes written.
func (c *instrumentedConn) Send(m Message) error {
	e, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	return c.SendEncoded(e)
}

func (c *instrumentedConn) SendEncoded(e *EncodedMessage) error {
	if err := c.inner.SendEncoded(e); err != nil {
		return err
	}
	kc := c.m.kind(e.Kind())
	kc.sentMsgs.Inc()
	kc.sentBytes.Add(int64(e.WireLen()))
	return nil
}

func (c *instrumentedConn) Recv() (m Message, err error) {
	var n int
	if c.sized != nil {
		m, n, err = c.sized.recvFrame()
	} else if m, err = c.inner.Recv(); err == nil {
		n = int(WireSize(m)) // a foreign Conn reads no frame we see: size the message
	}
	if err != nil {
		return nil, err
	}
	kc := c.m.kind(m.Kind())
	kc.recvMsgs.Inc()
	kc.recvBytes.Add(int64(n))
	return m, nil
}

func (c *instrumentedConn) Close() error { return c.inner.Close() }
