package comm

// This file is the causal-tracing envelope of the messaging layer. The
// paper's EveryWare instrumentation cost up to 50% of solver performance
// (§4.1), so GridSAT's timed runs flew blind; the flight recorder
// (internal/trace) instead stamps only control-plane messages, and does it
// with Lamport clocks rather than wall clocks so deterministic (DES) runs
// trace identically every time. The envelope is optional per message: an
// untraced run pays nothing, and a traced frame is self-describing on the
// wire (see codec.go's trace flag), so mixed deployments interoperate.

// TraceInfo is the causal metadata a Traced envelope carries: the sender's
// Lamport timestamp at send time and the flight-recorder event ID of the
// causally preceding event (0 when the sender records no flight log —
// event IDs are only meaningful within one recorder's log).
type TraceInfo struct {
	Lamport uint64
	Parent  uint64
}

// Traced wraps any protocol message with trace metadata. It implements
// Message by delegating Kind to the inner message, so queues, per-kind
// counters, and drop policies treat a traced message exactly like its
// payload. Receivers unwrap it at their event-loop boundary, merging
// Info.Lamport into their local clock.
type Traced struct {
	Info TraceInfo
	Msg  Message
}

// Kind implements Message, reporting the inner message's kind.
func (t Traced) Kind() string { return t.Msg.Kind() }

// Unwrap splits m into its payload and trace metadata. Untraced messages
// pass through with zero TraceInfo, so receive loops can call it
// unconditionally.
func Unwrap(m Message) (Message, TraceInfo) {
	if t, ok := m.(Traced); ok {
		return t.Msg, t.Info
	}
	return m, TraceInfo{}
}
