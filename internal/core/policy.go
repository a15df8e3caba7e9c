// Package core implements GridSAT itself: the master–client orchestration
// the paper contributes on top of the Chaff-style engine (§3.3–3.4).
//
// The master owns resource management (ranking hosts by NWS-style
// forecasts), client management (registration, idle/busy tracking, the
// work backlog) and scheduling (choosing the best idle resource for each
// split, migration of long-running subproblems). Clients run the solver,
// monitor their own memory against the 60%-of-free-memory budget, request
// splits on predicted exhaustion or after the 2×-transfer-time timeout,
// transfer subproblems peer-to-peer (Figure 3), and share short learned
// clauses with every other client.
//
// All of it is written once, as two message-driven state machines (Master,
// Client) that read time and send messages only through a clock and an
// outbox. Two shells drive them: the live one in this package (goroutines
// over comm.Transport — TCP or in-process — and the wall clock) and the
// deterministic discrete-event one in runner.go (grid.Sim events and the
// virtual clock), which the benchmark harness uses to reproduce the
// paper's tables, bit for bit on however many cores it is given.
package core

// SplitDecision captures the client-side split trigger policy (paper
// §3.3): request help when the clause database is predicted to outgrow
// the memory budget, or when the subproblem has run for twice the time it
// took to receive it ("a long running problem will continue to be a long
// running problem").
type SplitDecision struct {
	// MemBudgetBytes is the client's memory allowance (60% of free memory
	// in the paper).
	MemBudgetBytes int64
	// MemPressureFraction of the budget at which a split is requested;
	// requesting at 100% would be too late to transfer hundreds of MB.
	MemPressureFraction float64
	// TransferTime is how long the current subproblem took to receive.
	TransferTime float64
	// MinRunTime floors the timeout so trivially fast transfers do not
	// cause split storms (the ping-pong effect, §3.1).
	MinRunTime float64
}

// ShouldSplit evaluates the trigger given the solver's current estimated
// memory and how long the client has been running its subproblem.
// The bool reports whether to ask the master for a split; the reason
// distinguishes the paper's two triggers (memory wins ties).
func (d SplitDecision) ShouldSplit(memBytes int64, runTime float64) (bool, SplitWhy) {
	if d.MemBudgetBytes > 0 && float64(memBytes) >= d.MemPressureFraction*float64(d.MemBudgetBytes) {
		return true, WhyMemory
	}
	timeout := 2 * d.TransferTime
	if timeout < d.MinRunTime {
		timeout = d.MinRunTime
	}
	if runTime >= timeout {
		return true, WhyTimeout
	}
	return false, WhyNone
}

// SplitWhy is the trigger that fired.
type SplitWhy int

// Split triggers.
const (
	WhyNone SplitWhy = iota
	WhyMemory
	WhyTimeout
)

// String implements fmt.Stringer.
func (w SplitWhy) String() string {
	switch w {
	case WhyMemory:
		return "memory"
	case WhyTimeout:
		return "timeout"
	default:
		return "none"
	}
}

// Candidate describes an idle resource the scheduler can place work on.
type Candidate struct {
	ID   int
	Rank float64
	// MemBytes is forecast free memory; hosts under the minimum are
	// rejected outright (128 MB in the paper).
	MemBytes int64
}

// PickSplitTarget selects the highest-ranked idle candidate meeting the
// memory minimum (paper §3.3: "the master searches within the resource
// pool for the highest ranked idle resource"). Ties break on lower ID for
// determinism. Returns false when no candidate qualifies.
func PickSplitTarget(cands []Candidate, minMemBytes int64) (Candidate, bool) {
	best := -1
	for i, c := range cands {
		if c.MemBytes < minMemBytes {
			continue
		}
		if best < 0 || c.Rank > cands[best].Rank ||
			(c.Rank == cands[best].Rank && c.ID < cands[best].ID) {
			best = i
		}
	}
	if best < 0 {
		return Candidate{}, false
	}
	return cands[best], true
}
