// Package trace is the cluster flight recorder and what reads it back:
// the JSONL event log (this file), split lineage, Perfetto export and
// deterministic replay. It records the control plane only; the solver
// reports through its Stats.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// This file is the cluster flight recorder: a structured, append-only log
// of every causally significant control-plane action in a run — splits,
// share batches, heartbeats, client churn, memory sheds, the verdict —
// stamped with Lamport clocks and causal parent event IDs instead of wall
// clocks, so a deterministic (DES) run records an identical log every
// time. The paper's EveryWare instrumentation cost up to 50% of solver
// performance (§4.1) because it shipped per-implication events; the flight
// recorder stays off the solver hot path entirely (control-plane events
// are orders of magnitude rarer than propagations); the benchmark's
// trace.flight_overhead_pct measures what it costs end to end.

// Flight-event kinds. These are the JSONL schema's "kind" vocabulary;
// KnownKinds lists them all for validation.
const (
	FEvRunStart     = "run-start"     // N = launched/expected clients
	FEvClientJoin   = "client-join"   // Client joined the pool
	FEvClientLeave  = "client-leave"  // Client left (crash or disconnect)
	FEvAssign       = "assign"        // Client received the whole problem
	FEvSplitRequest = "split-request" // Client asked to shed work (Detail = why)
	FEvSplitIssue   = "split-issue"   // master paired donor Client with Peer
	FEvSplitAccept  = "split-accept"  // recipient Client started donor Peer's cofactor Cube
	FEvSplitFail    = "split-fail"    // an issued split leg never completed
	FEvSplitDone    = "split-done"    // donor Client kept Cube and returned N leftover cofactors
	FEvShareFlush   = "share-flush"   // Client flushed a batch of N learned clauses
	FEvShareRelay   = "share-relay"   // master fanned out N deduped clauses from Client
	FEvShareMerge   = "share-merge"   // Client imported N clauses from Peer
	FEvHeartbeat    = "heartbeat"     // liveness/telemetry tick
	FEvMemShed      = "mem-shed"      // Client's arena GC reclaimed N bytes
	FEvMigrate      = "migrate"       // subproblem Cube moved Client -> Peer
	FEvRecover      = "recover"       // orphaned subproblem Cube restarted on Client
	FEvSubUNSAT     = "sub-unsat"     // Client refuted Cube; N = coverage so far in fixed-point units (2^-62)
	FEvImportUse    = "import-use"    // Client first used an imported clause; N = uses this window
	FEvVerdict      = "verdict"       // run decided (Detail = SAT/UNSAT/UNKNOWN; SAT names the Cube)

	// Job lifecycle kinds. A one-shot run emits submit, start and done
	// once each, for its job 0.
	FEvJobSubmit = "job-submit" // Job entered the queue (N = priority, Detail = name)
	FEvJobStart  = "job-start"  // Job received its first client allocation
	FEvJobDone   = "job-done"   // Job reached a verdict (Detail = SAT/UNSAT/UNKNOWN)
	FEvJobCancel = "job-cancel" // Job was cancelled by the submitter

	// FEvAnomaly records a fired watchdog rule (Detail = "rule: detail",
	// Client set for per-client rules). Emitted only when a watchdog is
	// configured, so existing logs are unaffected.
	FEvAnomaly = "anomaly"
)

// KnownKinds is the flight-event vocabulary, used by Validate.
var KnownKinds = map[string]bool{
	FEvRunStart: true, FEvClientJoin: true, FEvClientLeave: true,
	FEvAssign: true, FEvSplitRequest: true, FEvSplitIssue: true,
	FEvSplitAccept: true, FEvSplitFail: true, FEvSplitDone: true,
	FEvShareFlush: true,
	FEvShareRelay: true, FEvShareMerge: true, FEvHeartbeat: true,
	FEvMemShed: true, FEvMigrate: true, FEvRecover: true,
	FEvSubUNSAT: true, FEvImportUse: true,
	FEvVerdict:   true,
	FEvJobSubmit: true, FEvJobStart: true, FEvJobDone: true, FEvJobCancel: true,
	FEvAnomaly: true,
}

// FEvent is one flight-recorder event — one JSONL line. IDs are assigned
// by the recorder, sequential from 1; Lamport timestamps are merged from
// whatever the emitter observed, so an event's timestamp always exceeds
// its cause's. Parent is the event ID of the causal predecessor within the
// same log (0 = none), letting consumers rebuild message causality and
// split lineage exactly.
type FEvent struct {
	ID      uint64 `json:"id"`
	Lamport uint64 `json:"lamport"`
	Parent  uint64 `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Client  int    `json:"client,omitempty"`
	// Worker attributes the event to an in-host portfolio worker of
	// Client (0 = the pathfinder, also the only worker on
	// single-threaded clients). Set on verdict/sub-unsat events.
	Worker int `json:"worker,omitempty"`
	// Job keys the event to a job. 0 is a one-shot run's only job and is
	// omitted from the JSONL line, so a one-shot log names no job at all,
	// like the logs recorded before jobs existed.
	Job     int     `json:"job,omitempty"`
	Peer    int     `json:"peer,omitempty"`
	SplitID int     `json:"split,omitempty"`
	N       int64   `json:"n,omitempty"`
	VSec    float64 `json:"vsec,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	// Cube is the guiding path of the subproblem the event hands over,
	// keeps or closes: its DIMACS literals from the root, separated by
	// spaces ("" is the root). A string keeps FEvent comparable with ==.
	Cube string `json:"cube,omitempty"`
}

// Flight is the recorder. Events accumulate in memory (a run's
// control-plane event count is small next to its propagation count) and
// are optionally streamed as JSONL to a sink as they happen, so a crashed
// or killed run still leaves a usable log behind. Safe for concurrent use.
type Flight struct {
	mu     sync.Mutex
	clock  uint64
	events []FEvent
	w      *bufio.Writer
	enc    *json.Encoder
	err    error
}

// NewFlight returns a recorder; w, when non-nil, receives each event as a
// JSONL line at emit time (call Flush before reading the sink).
func NewFlight(w io.Writer) *Flight {
	f := &Flight{}
	if w != nil {
		f.w = bufio.NewWriter(w)
		f.enc = json.NewEncoder(f.w)
	}
	return f
}

// Emit records ev and returns its assigned event ID. The recorder merges
// ev.Lamport (the emitter's observed timestamp; 0 for a purely local
// event) into its clock Lamport-style, so the stored timestamp strictly
// exceeds both the previous event's and the observed cause's.
func (f *Flight) Emit(ev FEvent) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ev.Lamport > f.clock {
		f.clock = ev.Lamport
	}
	f.clock++
	ev.Lamport = f.clock
	ev.ID = uint64(len(f.events) + 1)
	f.events = append(f.events, ev)
	if f.enc != nil && f.err == nil {
		f.err = f.enc.Encode(ev)
	}
	return ev.ID
}

// Tick advances the recorder's Lamport clock without recording an event —
// used to stamp outbound messages so receivers can merge.
func (f *Flight) Tick() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.clock++
	return f.clock
}

// Now returns the recorder's current Lamport time.
func (f *Flight) Now() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clock
}

// Len returns the number of recorded events.
func (f *Flight) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.events)
}

// Events returns a copy of the recorded log, oldest first.
func (f *Flight) Events() []FEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FEvent, len(f.events))
	copy(out, f.events)
	return out
}

// Flush drains the streaming sink (no-op without one) and reports any
// write error encountered so far.
func (f *Flight) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.w != nil {
		if err := f.w.Flush(); err != nil && f.err == nil {
			f.err = err
		}
	}
	return f.err
}

// WriteJSONL writes the whole log as JSONL (one event per line),
// independent of any streaming sink.
func (f *Flight) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, f.Events())
}

// WriteJSONL writes events as JSONL, one per line.
func WriteJSONL(w io.Writer, events []FEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL flight log back into events.
func ReadJSONL(r io.Reader) ([]FEvent, error) {
	dec := json.NewDecoder(r)
	var out []FEvent
	for {
		var ev FEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: flight log line %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
}

// Validate checks the flight-log schema invariants: IDs sequential from 1,
// Lamport timestamps strictly increasing (one recorder = one clock), every
// kind known, and every parent referring to an earlier event.
func Validate(events []FEvent) error {
	for i, ev := range events {
		if ev.ID != uint64(i+1) {
			return fmt.Errorf("trace: event %d has ID %d, want %d", i, ev.ID, i+1)
		}
		if !KnownKinds[ev.Kind] {
			return fmt.Errorf("trace: event %d has unknown kind %q", ev.ID, ev.Kind)
		}
		if i > 0 && ev.Lamport <= events[i-1].Lamport {
			return fmt.Errorf("trace: event %d Lamport %d not after predecessor's %d",
				ev.ID, ev.Lamport, events[i-1].Lamport)
		}
		if ev.Parent >= ev.ID {
			return fmt.Errorf("trace: event %d parent %d is not an earlier event", ev.ID, ev.Parent)
		}
	}
	return nil
}

// FlightSummary is the aggregate view of a flight log embedded in run
// reports: total events, per-kind counts, the final verdict event's
// detail, and the log's last Lamport timestamp.
type FlightSummary struct {
	Events  int64            `json:"events"`
	PerKind map[string]int64 `json:"per_kind,omitempty"`
	Verdict string           `json:"verdict,omitempty"`
	Lamport uint64           `json:"lamport,omitempty"`
}

// Summarize aggregates a flight log.
func Summarize(events []FEvent) FlightSummary {
	s := FlightSummary{Events: int64(len(events)), PerKind: map[string]int64{}}
	for _, ev := range events {
		s.PerKind[ev.Kind]++
		if ev.Kind == FEvVerdict {
			s.Verdict = ev.Detail
		}
		if ev.Lamport > s.Lamport {
			s.Lamport = ev.Lamport
		}
	}
	return s
}

// JobVerdicts returns the per-job outcomes recorded in a log: the Detail
// of each job's job-done (or job-cancel, as "CANCELLED") event. A one-shot
// log has the one entry of its job 0.
func JobVerdicts(events []FEvent) map[int]string {
	out := map[int]string{}
	for _, ev := range events {
		switch ev.Kind {
		case FEvJobDone:
			out[ev.Job] = ev.Detail
		case FEvJobCancel:
			out[ev.Job] = "CANCELLED"
		}
	}
	return out
}
