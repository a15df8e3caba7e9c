// Package comm is GridSAT's messaging layer, standing in for the EveryWare
// toolkit the paper built on. It defines the typed messages of the
// master–client protocol (including the five-message split exchange of
// Figure 3), one framed binary wire codec — every kind lists its fields
// once in kinds.go; learned-clause batches travel as bit-packed clause
// blocks — and two interchangeable transports: real TCP (net) for
// deployment and an in-process channel transport for tests and
// single-machine runs.
package comm

import (
	"gridsat/internal/cnf"
	"gridsat/internal/solver"
)

// Message is the envelope interface every protocol message implements.
type Message interface {
	// Kind returns a short human-readable message-type tag, used by
	// instrumentation and the Figure-3 trace test.
	Kind() string
}

// Register is the first message a freshly launched client sends to the
// master (paper §3.3: "When a client starts successfully it contacts the
// master and registers with it").
type Register struct {
	Addr     string // address peers can dial for P2P transfers
	HostName string
	// FreeMemBytes is the client's measured free memory; the master
	// refuses clients below the minimum (128 MB in the paper).
	FreeMemBytes int64
	SpeedHint    float64
	// Fanout is the most cofactors one split of this client hands out (its
	// strategy's batch size: 1 for first-decision, 2^k-1 for a 2^k
	// dilemma), so the master reserves that many idle recipients for it.
	Fanout int
}

// Kind implements Message.
func (Register) Kind() string { return "register" }

// RegisterAck assigns the client its ID.
type RegisterAck struct {
	ClientID int
	// Rejected is set when the client does not meet the resource minimum.
	Rejected bool
	Reason   string
}

// Kind implements Message.
func (RegisterAck) Kind() string { return "register-ack" }

// BaseProblem caches the original formula at a client when it registers,
// so later split payloads need only carry assumptions and learned clauses
// (the initial clauses "are obtained from the problem file", §3.4).
type BaseProblem struct {
	Formula *cnf.Formula
	// Job keys the formula to a scheduler job (0 = job 0 of a one-shot
	// run); the master sends one BaseProblem per job a client is allocated
	// to, and the client caches them by ID.
	Job int
}

// Kind implements Message.
func (BaseProblem) Kind() string { return "base-problem" }

// SplitRequest is Figure 3's message (1): a client predicts resource
// exhaustion or hits its split timeout and asks the master for help.
type SplitRequest struct {
	// ClientID has no reader: the master knows every sender by its
	// connection. It stays because benchmark/probes times the control-frame
	// round trip with a SplitRequest{ClientID: 1}, and that module pins the
	// frame it sends.
	ClientID int
	// Why distinguishes the paper's two triggers.
	Why SplitReason
}

// Kind implements Message.
func (SplitRequest) Kind() string { return "split-request" }

// SplitReason is why a client wants to shed work.
type SplitReason int

// Split triggers (paper §3.3).
const (
	SplitMemoryPressure SplitReason = iota // predicted memory exhaustion
	SplitTimeout                           // ran 2× transfer time without finishing
)

// String implements fmt.Stringer.
func (r SplitReason) String() string {
	if r == SplitMemoryPressure {
		return "memory-pressure"
	}
	return "timeout"
}

// SplitPeer identifies one recipient of a split batch: its client ID and
// the address the donor dials for the direct peer-to-peer transfer.
type SplitPeer struct {
	ID   int
	Addr string
}

// SplitAssign is Figure 3's message (2): the master tells the donor which
// idle peers will take parts of its problem, including each peer's address
// for direct client-to-client transfer. A first-decision split carries one
// peer; a 2^k dilemma split carries up to 2^k-1.
type SplitAssign struct {
	// SplitID uniquely identifies this assignment; it flows through the
	// payloads and every SplitDone notification so the master can correlate
	// them even when recipients are released and re-reserved quickly.
	SplitID int
	Peers   []SplitPeer
}

// Kind implements Message.
func (SplitAssign) Kind() string { return "split-assign" }

// SplitPayload is Figure 3's message (3) — the large peer-to-peer message
// (10 KB to 100s of MB in the paper) carrying subproblems. The donor sends
// each recipient a single-subproblem payload; a payload with several
// subproblems is a batch remainder shipped back to the master for
// backlogging (a dilemma split can produce more cofactors than there are
// idle clients to take them).
type SplitPayload struct {
	SplitID int // 0 for the master's initial whole-problem assignment
	// Job tags the subproblems with their scheduler job (0 = job 0 of a
	// one-shot run), so the recipient solves against the right base
	// formula.
	Job  int
	Subs []*solver.Subproblem
}

// Kind implements Message.
func (SplitPayload) Kind() string { return "split-payload" }

// SplitDone covers Figure 3's messages (4) and (5): each recipient and the
// donor notify the master whether their leg of the transfer succeeded.
type SplitDone struct {
	// SplitID echoes the assignment being acknowledged so the master can
	// correlate donor and recipient notifications even when recipients are
	// released and re-reserved quickly; 0 acknowledges the master's
	// initial whole-problem assignment.
	SplitID int
	OK      bool
	Err     string
	// Cube is, when OK, the sender's guiding path as it stands now: the
	// cube a recipient started, or the one a donor kept.
	Cube []cnf.Lit
	// Donor-only fields. Used is how many of the assigned peers actually
	// received a subproblem — a strategy may produce a smaller batch than
	// the master reserved recipients for, and the master releases the
	// unused ones; Served lists those Used cofactors' cubes in peer order.
	// Leftover carries cofactors beyond the assigned peers for the master
	// to backlog and hand to clients as they go idle.
	Used     int
	Served   [][]cnf.Lit
	Leftover []*solver.Subproblem
}

// Kind implements Message.
func (SplitDone) Kind() string { return "split-done" }

// ShareClauses broadcasts freshly learned short clauses to a peer
// (paper §3.2: GridSAT shares clauses "as soon as they are generated").
type ShareClauses struct {
	From int
	// Job scopes the batch: learned clauses are only sound within the job
	// whose formula produced them, so the master fans a batch out to that
	// job's clients only and a reassigned client drops stale batches.
	Job     int
	Clauses []cnf.Clause
}

// Kind implements Message.
func (ShareClauses) Kind() string { return "share-clauses" }

// Solved reports a client's terminal result for its subproblem. A SAT
// result carries the model for the master to verify; an UNSAT result
// makes the client idle and refutes the cube the master holds for it.
type Solved struct {
	Status solver.Status
	Model  cnf.Assignment
	// Worker is the portfolio worker that produced the verdict (0 on
	// single-threaded clients — the pathfinder), for the flight log's
	// worker attribution.
	Worker int
	// Job attributes the verdict to a scheduler job (0 = job 0 of a
	// one-shot run), so the master ignores a verdict on another job's
	// subproblem than the one it has the client down for.
	Job int
}

// Kind implements Message.
func (Solved) Kind() string { return "solved" }

// Shutdown tells a client to exit.
type Shutdown struct{}

// Kind implements Message.
func (Shutdown) Kind() string { return "shutdown" }

// Stopped is the client's answer to StopWork: it dropped the subproblem
// and is idle again. For a job still running, the ack hands the
// subproblem back: the master requeues its cube.
type Stopped struct {
	Job int
	// Seq echoes the token from the StopWork being acknowledged.
	Seq int
}

// Kind implements Message.
func (Stopped) Kind() string { return "stopped" }

// StopWork tells a client to abandon its current subproblem: the owning
// job already reached a verdict or was cancelled, or the master moves the
// subproblem to a better client (§3.4 migration) by requeueing its cube.
// Nothing travels back with the ack but the clauses the client shared
// before it; the client acknowledges with Stopped.
type StopWork struct {
	Job int
	// Seq is the master's per-client stop token, echoed back in Stopped so
	// the master can discard acks from stops that a verdict already beat.
	Seq int
}

// Kind implements Message.
func (StopWork) Kind() string { return "stop-work" }

// SolverDeltas carries solver counter increments accumulated since the
// client's previous StatusReport, so the master can maintain a live
// cluster-wide view by summation alone — no per-client reset handling.
type SolverDeltas struct {
	Decisions    int64 `json:"decisions"`
	Conflicts    int64 `json:"conflicts"`
	Propagations int64 `json:"propagations"`
	Implications int64 `json:"implications"`
	Learned      int64 `json:"learned"`
	// ReclaimedBytes counts bytes the client's clause-arena GC returned
	// (learned-clause shedding + compaction) since the last report.
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// Import-usefulness telemetry (see solver.Stats): Imported counts
	// peer clauses merged into the database; ImportedImplications and
	// ImportedResolutions count the BCP implications and conflict-analysis
	// resolutions those clauses produced; ImportedUseful counts distinct
	// imported clauses used at least once. The master aggregates these into
	// the cluster's share-efficacy view.
	Imported             int64 `json:"imported"`
	ImportedImplications int64 `json:"imported_implications"`
	ImportedResolutions  int64 `json:"imported_resolutions"`
	ImportedUseful       int64 `json:"imported_useful"`
}

// Add accumulates another delta into d.
func (d *SolverDeltas) Add(o SolverDeltas) {
	d.Decisions += o.Decisions
	d.Conflicts += o.Conflicts
	d.Propagations += o.Propagations
	d.Implications += o.Implications
	d.Learned += o.Learned
	d.ReclaimedBytes += o.ReclaimedBytes
	d.Imported += o.Imported
	d.ImportedImplications += o.ImportedImplications
	d.ImportedResolutions += o.ImportedResolutions
	d.ImportedUseful += o.ImportedUseful
}

// StatusReport is a periodic client heartbeat with resource telemetry.
// MemBytes and Learnts are point-in-time gauges of the client's current
// solver; Deltas are counter increments since the last report (see
// SolverDeltas). Who sent it, and whether that client is busy, the master
// reads off its own client table.
type StatusReport struct {
	MemBytes int64
	Learnts  int
	Deltas   SolverDeltas
	// Job is the scheduler job the client is currently working for
	// (0 = job 0 of a one-shot run).
	Job int
	// Workers carries per-worker rows when the client runs an in-host
	// portfolio (nil for single-threaded clients). Point-in-time gauges,
	// not deltas: each heartbeat replaces the previous view.
	Workers []WorkerReport
}

// WorkerReport is one portfolio worker's row inside a StatusReport: which
// diversification profile it runs and how far its search has gone, so
// /status and `gridsat top` can show the in-host picture.
type WorkerReport struct {
	Worker       int
	Profile      string
	Conflicts    int64
	Propagations int64
	Restarts     int64
	Learnts      int
	MemBytes     int64
}

// Kind implements Message.
func (StatusReport) Kind() string { return "status" }
