package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
)

// This file exports a flight log in the Chrome trace-event JSON format, so
// a run opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing:
// one timeline row per client, a complete-event ("X") span for every
// subproblem-ownership interval, instant events ("i") for the punctual
// kinds, and flow arrows ("s"/"f") along causal parent edges — the visual
// the paper could only sketch as Figure 2. Multi-job logs render one
// track group ("process") per job, so a scheduler trace shows each job's
// clients side by side and a client visibly hops between groups when the
// scheduler reassigns it.
//
// Timestamps are microseconds on the recording shell's clock (VSec * 1e6:
// virtual seconds for DES logs, seconds since start for live ones); logs
// that carry no clock fall back to Lamport time (1 tick = 1 µs) — the
// ordering is exact even though the spacing is notional.

type perfettoEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	ID    uint64         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
	Scope string         `json:"s,omitempty"`
}

// perfettoPid is the base "process" ID; job J renders as process
// perfettoPid+J, so a one-shot run's job 0 keeps the historical pid 1 and
// every submitted job gets its own track group.
const perfettoPid = 1

// WritePerfetto writes events as a Chrome trace-event JSON document.
func WritePerfetto(w io.Writer, events []FEvent) error {
	ts := perfettoTimestamps(events)
	var out []perfettoEvent

	// Multi-job logs label each track group with the job it belongs to.
	multiJob := false
	for _, ev := range events {
		if ev.Job != 0 {
			multiJob = true
			break
		}
	}

	// Name the rows: within each job's group, tid 0 is the
	// master/coordinator lane and tid N is client N.
	type lane struct{ pid, tid int }
	named := map[lane]bool{}
	name := func(pid, tid int, label string) {
		if named[lane{pid, tid}] {
			return
		}
		named[lane{pid, tid}] = true
		if multiJob && !named[lane{pid, -1}] {
			named[lane{pid, -1}] = true
			out = append(out, perfettoEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": fmt.Sprintf("job %d", pid-perfettoPid)},
			})
		}
		out = append(out, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": label},
		})
	}
	name(perfettoPid, 0, "master")

	// Ownership spans: a client's row is "solving" from the event that gave
	// it work (assign / split-accept / recover / migrate in) until the event
	// that took the work away (sub-unsat / migrate out / leave / verdict /
	// job end) or gave it new work, inside their job's track group.
	type openSpan struct {
		start float64
		label string
		ev    FEvent
	}
	open := map[int]*openSpan{}
	closeSpan := func(client int, end float64) {
		s := open[client]
		if s == nil {
			return
		}
		delete(open, client)
		dur := end - s.start
		if dur <= 0 {
			dur = 1 // sub-µs spans still render
		}
		out = append(out, perfettoEvent{
			Name: s.label, Ph: "X", Ts: s.start, Dur: dur,
			Pid: perfettoPid + s.ev.Job, Tid: s.ev.Client, Cat: "subproblem",
			Args: map[string]any{"split": s.ev.SplitID, "event": s.ev.ID},
		})
	}
	begin := func(client int, s *openSpan) {
		closeSpan(client, s.start)
		open[client] = s
	}
	// closeAll closes the open spans whose job match accepts, in client
	// order so one log always renders to the same bytes.
	closeAll := func(end float64, match func(job int) bool) {
		for _, client := range slices.Sorted(maps.Keys(open)) {
			if match(open[client].ev.Job) {
				closeSpan(client, end)
			}
		}
	}

	lastTs := 0.0
	for i, ev := range events {
		t := ts[i]
		lastTs = t
		pid := perfettoPid + ev.Job
		tid := ev.Client
		if tid > 0 {
			name(pid, tid, fmt.Sprintf("client %d", tid))
		} else {
			name(pid, 0, "master")
		}
		switch ev.Kind {
		case FEvAssign:
			begin(ev.Client, &openSpan{start: t, label: "root", ev: ev})
		case FEvSplitAccept:
			begin(ev.Client, &openSpan{start: t, label: fmt.Sprintf("split %d", ev.SplitID), ev: ev})
		case FEvRecover:
			begin(ev.Client, &openSpan{start: t, label: "recovered", ev: ev})
		case FEvSubUNSAT, FEvClientLeave, FEvVerdict:
			closeSpan(ev.Client, t)
		case FEvMigrate:
			closeSpan(ev.Client, t)
			begin(ev.Peer, &openSpan{start: t, label: "migrated-in", ev: FEvent{Client: ev.Peer, ID: ev.ID, Job: ev.Job}})
			name(pid, ev.Peer, fmt.Sprintf("client %d", ev.Peer))
		case FEvJobDone, FEvJobCancel:
			// These carry no client: every span of the job ends here.
			closeAll(t, func(job int) bool { return job == ev.Job })
		}

		// Every event also appears as an instant on its row (master events
		// have no client and land on tid 0).
		inst := perfettoEvent{
			Name: ev.Kind, Ph: "i", Ts: t, Pid: pid, Tid: tid,
			Cat: "flight", Scope: "t",
			Args: map[string]any{"event": ev.ID, "lamport": ev.Lamport},
		}
		if ev.N != 0 {
			inst.Args["n"] = ev.N
		}
		if ev.Peer != 0 {
			inst.Args["peer"] = ev.Peer
		}
		if ev.Detail != "" {
			inst.Args["detail"] = ev.Detail
		}
		out = append(out, inst)

		// Causal flow arrow from the parent event's row to this one.
		if ev.Parent != 0 && ev.Parent <= uint64(len(events)) {
			p := events[ev.Parent-1]
			out = append(out,
				perfettoEvent{Name: "cause", Ph: "s", Ts: ts[ev.Parent-1],
					Pid: perfettoPid + p.Job, Tid: p.Client, Cat: "causal", ID: ev.ID},
				perfettoEvent{Name: "cause", Ph: "f", Ts: t, BP: "e",
					Pid: pid, Tid: tid, Cat: "causal", ID: ev.ID},
			)
		}
	}
	// Close anything still open at the end of the log.
	closeAll(lastTs+1, func(int) bool { return true })

	doc := struct {
		TraceEvents []perfettoEvent `json:"traceEvents"`
		Unit        string          `json:"displayTimeUnit"`
	}{out, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// perfettoTimestamps maps each event to microseconds: the shell clock when
// the log carries one, Lamport ticks otherwise. Ties (and the small skews
// between a live master's and its clients' clocks) are resolved by
// spreading events a nominal 0.1 µs apart so the UI keeps log order.
func perfettoTimestamps(events []FEvent) []float64 {
	hasVSec := false
	for _, ev := range events {
		if ev.VSec > 0 {
			hasVSec = true
			break
		}
	}
	out := make([]float64, len(events))
	prev := -1.0
	for i, ev := range events {
		var t float64
		if hasVSec {
			t = ev.VSec * 1e6
		} else {
			t = float64(ev.Lamport)
		}
		if t <= prev {
			t = prev + 0.1
		}
		out[i] = t
		prev = t
	}
	return out
}
