package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestFlightEmitAssignsSequentialIDsAndLamport(t *testing.T) {
	f := NewFlight(nil)
	for i := 0; i < 5; i++ {
		id := f.Emit(FEvent{Kind: FEvHeartbeat})
		if id != uint64(i+1) {
			t.Fatalf("emit %d got id %d", i, id)
		}
	}
	evs := f.Events()
	if err := Validate(evs); err != nil {
		t.Fatal(err)
	}
	if evs[4].Lamport != 5 {
		t.Fatalf("lamport = %d, want 5", evs[4].Lamport)
	}
}

func TestFlightLamportMerge(t *testing.T) {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvRunStart})
	// An event stamped with a remote Lamport time far ahead drags the
	// recorder's clock forward past it.
	f.Emit(FEvent{Kind: FEvShareRelay, Lamport: 100})
	ev := f.Events()[1]
	if ev.Lamport != 101 {
		t.Fatalf("merged lamport = %d, want 101", ev.Lamport)
	}
	if next := f.Emit(FEvent{Kind: FEvHeartbeat}); next != 3 {
		t.Fatalf("id = %d", next)
	}
	if got := f.Events()[2].Lamport; got != 102 {
		t.Fatalf("following lamport = %d, want 102", got)
	}
}

func TestFlightJSONLRoundTrip(t *testing.T) {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvRunStart, N: 4})
	f.Emit(FEvent{Kind: FEvClientJoin, Client: 1, Detail: "host-a"})
	f.Emit(FEvent{Kind: FEvAssign, Client: 1, VSec: 4.5})
	var b bytes.Buffer
	if err := f.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("round trip lost events: %d", len(back))
	}
	orig := f.Events()
	for i := range back {
		if back[i] != orig[i] {
			t.Fatalf("event %d: %+v != %+v", i, back[i], orig[i])
		}
	}
}

func TestFlightStreamingSink(t *testing.T) {
	var b bytes.Buffer
	f := NewFlight(&b)
	f.Emit(FEvent{Kind: FEvRunStart})
	f.Emit(FEvent{Kind: FEvVerdict, Detail: "UNSAT"})
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Detail != "UNSAT" {
		t.Fatalf("streamed log wrong: %+v", back)
	}
}

func TestValidateRejectsBadLogs(t *testing.T) {
	cases := map[string][]FEvent{
		"gap in ids": {
			{ID: 1, Lamport: 1, Kind: FEvRunStart},
			{ID: 3, Lamport: 2, Kind: FEvVerdict},
		},
		"unknown kind": {{ID: 1, Lamport: 1, Kind: "warp-drive"}},
		"stalled lamport": {
			{ID: 1, Lamport: 5, Kind: FEvRunStart},
			{ID: 2, Lamport: 5, Kind: FEvVerdict},
		},
		"forward parent": {{ID: 1, Lamport: 1, Kind: FEvRunStart, Parent: 1}},
	}
	for name, evs := range cases {
		if Validate(evs) == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestSummarizeAndVerdict(t *testing.T) {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvRunStart})
	f.Emit(FEvent{Kind: FEvShareFlush, Client: 1, N: 3})
	f.Emit(FEvent{Kind: FEvShareFlush, Client: 2, N: 1})
	f.Emit(FEvent{Kind: FEvVerdict, Detail: "SAT"})
	s := Summarize(f.Events())
	if s.Events != 4 || s.PerKind[FEvShareFlush] != 2 || s.Verdict != "SAT" {
		t.Fatalf("summary %+v", s)
	}
	if s.Lamport != 4 {
		t.Fatalf("lamport horizon %d", s.Lamport)
	}
	if Summarize(f.Events()[:3]).Verdict != "" {
		t.Fatal("verdict before the verdict event")
	}
}

// synthSplitLog builds a small but complete flight log: client 1 gets the
// problem, splits twice (to 2, then 2 splits to 3), everyone exhausts. The
// first donor reports after its recipient accepted, the second before.
func synthSplitLog() []FEvent {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvRunStart, N: 3})
	for c := 1; c <= 3; c++ {
		f.Emit(FEvent{Kind: FEvClientJoin, Client: c})
	}
	f.Emit(FEvent{Kind: FEvAssign, Client: 1})
	req := f.Emit(FEvent{Kind: FEvSplitRequest, Client: 1, Detail: "timeout"})
	iss := f.Emit(FEvent{Kind: FEvSplitIssue, Client: 1, Peer: 2, SplitID: 1, Parent: req})
	f.Emit(FEvent{Kind: FEvSplitAccept, Client: 2, Peer: 1, SplitID: 1, Parent: iss, Cube: "-1"})
	f.Emit(FEvent{Kind: FEvShareFlush, Client: 2, N: 4})
	f.Emit(FEvent{Kind: FEvSplitDone, Client: 1, SplitID: 1, Parent: iss, Cube: "1"})
	req2 := f.Emit(FEvent{Kind: FEvSplitRequest, Client: 2, Detail: "mem-pressure"})
	iss2 := f.Emit(FEvent{Kind: FEvSplitIssue, Client: 2, Peer: 3, SplitID: 2, Parent: req2})
	f.Emit(FEvent{Kind: FEvSplitDone, Client: 2, SplitID: 2, Parent: iss2, Cube: "-1 2"})
	f.Emit(FEvent{Kind: FEvSplitAccept, Client: 3, Peer: 2, SplitID: 2, Parent: iss2, Cube: "-1 -2"})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 1, Cube: "1"})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 3, Cube: "-1 -2"})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 2, Cube: "-1 2"})
	f.Emit(FEvent{Kind: FEvVerdict, Detail: "UNSAT"})
	return f.Events()
}

func TestLineageLeavesEqualSplitsPlusOne(t *testing.T) {
	tree := BuildLineage(synthSplitLog())
	if tree.Root == nil {
		t.Fatal("no root")
	}
	// 2 accepted splits -> 3 leaves.
	if got := len(tree.Leaves()); got != 3 {
		t.Fatalf("leaves = %d, want 3", got)
	}
	for _, n := range tree.Leaves() {
		if n.Status != NodeUNSAT {
			t.Errorf("leaf #%d status %q, want unsat", n.ID, n.Status)
		}
	}
	if tree.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", tree.Depth())
	}
	// The share flush landed on client 2's pre-split node (the one that
	// later became the split-2 interior).
	var flushed *LineageNode
	for _, n := range tree.Nodes() {
		if n.ShareFlushes > 0 {
			flushed = n
		}
	}
	if flushed == nil || flushed.Status != NodeSplit {
		t.Fatalf("share flush attribution wrong: %+v", flushed)
	}
}

func TestLineageSurvivesDonorFinishRace(t *testing.T) {
	// The donor exhausts its (already halved) piece before the recipient's
	// accept lands; the builder must still attach the recipient under the
	// donor's old node and keep leaves = accepts+1.
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvAssign, Client: 1})
	f.Emit(FEvent{Kind: FEvSplitIssue, Client: 1, Peer: 2, SplitID: 1})
	f.Emit(FEvent{Kind: FEvSplitDone, Client: 1, SplitID: 1, Cube: "3"})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 1, Cube: "3"})
	f.Emit(FEvent{Kind: FEvSplitAccept, Client: 2, Peer: 1, SplitID: 1, Cube: "-3"})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 2, Cube: "-3"})
	tree := BuildLineage(f.Events())
	if got := len(tree.Leaves()); got != 2 {
		t.Fatalf("leaves = %d, want 2", got)
	}
	if tree.Root.Status != NodeSplit {
		t.Fatalf("root status %q", tree.Root.Status)
	}
	// The donor-continuation child keeps its recorded unsat.
	if tree.Root.Children[0].Status != NodeUNSAT {
		t.Fatalf("continuation status %q", tree.Root.Children[0].Status)
	}
}

func TestLineageOrphanRecovery(t *testing.T) {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvAssign, Client: 1})
	leave := f.Emit(FEvent{Kind: FEvClientLeave, Client: 1, Detail: "crash"})
	f.Emit(FEvent{Kind: FEvRecover, Client: 2, Parent: leave})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 2})
	tree := BuildLineage(f.Events())
	if len(tree.Nodes()) != 1 {
		t.Fatalf("recovery must reuse the node, got %d nodes", len(tree.Nodes()))
	}
	n := tree.Root
	if n.Owner != 2 || n.Status != NodeUNSAT {
		t.Fatalf("recovered node %+v", n)
	}
}

func TestLineageMigration(t *testing.T) {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvAssign, Client: 1})
	f.Emit(FEvent{Kind: FEvMigrate, Client: 1, Peer: 2})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 2})
	tree := BuildLineage(f.Events())
	if tree.Root.Owner != 2 || tree.Root.Migrations != 1 || tree.Root.Status != NodeUNSAT {
		t.Fatalf("migrated root %+v", tree.Root)
	}
}

func TestLineageDOTAndJSON(t *testing.T) {
	tree := BuildLineage(synthSplitLog())
	var dot bytes.Buffer
	if err := tree.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	s := dot.String()
	if !strings.HasPrefix(s, "digraph lineage {") || strings.Count(s, "->") != 4 {
		t.Fatalf("dot output wrong (edges=%d):\n%s", strings.Count(s, "->"), s)
	}
	var js bytes.Buffer
	if err := tree.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Nodes  int `json:"nodes"`
		Leaves int `json:"leaves"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Nodes != 5 || doc.Leaves != 3 {
		t.Fatalf("json totals %+v", doc)
	}
}

func TestWritePerfetto(t *testing.T) {
	var b bytes.Buffer
	if err := WritePerfetto(&b, synthSplitLog()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("not valid trace-event JSON: %v", err)
	}
	var spans, instants, flows int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "i":
			instants++
		case "s":
			flows++
		}
	}
	// 3 ownership spans (root + 2 split halves), one instant per event,
	// one flow source per parented event.
	if spans != 3 {
		t.Errorf("spans = %d, want 3", spans)
	}
	if instants != len(synthSplitLog()) {
		t.Errorf("instants = %d, want %d", instants, len(synthSplitLog()))
	}
	if flows != 6 {
		t.Errorf("flow sources = %d, want 6", flows)
	}
	// No virtual time in the synthetic log: timestamps must be strictly
	// increasing Lamport fallbacks, never equal.
	var prev float64 = -1
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "i" {
			continue
		}
		ts := ev["ts"].(float64)
		if ts <= prev {
			t.Fatalf("instant timestamps not increasing: %v <= %v", ts, prev)
		}
		prev = ts
	}
}

func TestCompareLogsNamesDivergence(t *testing.T) {
	a := synthSplitLog()
	b := synthSplitLog()[:len(synthSplitLog())-1] // drop the verdict
	err := CompareLogs(a, b)
	if err == nil {
		t.Fatal("divergence undetected")
	}
	if msg := err.Error(); !strings.Contains(msg, "at event 18 of 18/17") ||
		!strings.Contains(msg, "Kind:verdict") || !strings.Contains(msg, "(end of log)") {
		t.Fatalf("error does not name the missing verdict: %v", err)
	}
	// One field of one event is a divergence too.
	b = synthSplitLog()
	b[8].N++
	if err := CompareLogs(a, b); err == nil || !strings.Contains(err.Error(), "at event 9 of 18/18") {
		t.Fatalf("a changed share-flush count: %v", err)
	}
}

func TestReplayVerify(t *testing.T) {
	recorded := synthSplitLog()
	// A faithful rerun passes: the recorder stamps IDs and Lamport times.
	rerun := func(skip func(FEvent) bool) func(*Flight) error {
		return func(f *Flight) error {
			for _, ev := range recorded {
				if !skip(ev) {
					ev.ID, ev.Lamport = 0, 0
					f.Emit(ev)
				}
			}
			return nil
		}
	}
	if err := ReplayVerify(recorded, rerun(func(FEvent) bool { return false })); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}
	// A rerun that loses a split fails at that split, naming it.
	err := ReplayVerify(recorded, rerun(func(ev FEvent) bool {
		return ev.Kind == FEvSplitAccept && ev.SplitID == 2
	}))
	if err == nil || !strings.Contains(err.Error(), "at event 14 of 18/17") ||
		!strings.Contains(err.Error(), "Kind:"+FEvSplitAccept) {
		t.Fatalf("lost split not reported: %v", err)
	}
	// A rerun that errors surfaces the error.
	boom := errors.New("boom")
	if err := ReplayVerify(recorded, func(*Flight) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("rerun error swallowed: %v", err)
	}
}

// TestWritePerfettoIsDeterministic renders one log whose eight ownership
// spans are still open at its end, again and again: the spans closed there
// must come out in the same order, so every render is the same bytes.
func TestWritePerfettoIsDeterministic(t *testing.T) {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvAssign, Client: 1, VSec: 1})
	for c := 2; c <= 8; c++ {
		f.Emit(FEvent{Kind: FEvSplitAccept, Client: c, Peer: 1, SplitID: c - 1, VSec: float64(c)})
	}
	var first bytes.Buffer
	if err := WritePerfetto(&first, f.Events()); err != nil {
		t.Fatal(err)
	}
	for i := range 10 {
		var b bytes.Buffer
		if err := WritePerfetto(&b, f.Events()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), first.Bytes()) {
			t.Fatalf("render %d differs from the first", i+2)
		}
	}
}

// TestWritePerfettoKeepsEverySpan: a client's span ends when its job is
// cancelled (job-cancel names no client), and a new assignment to the same
// client opens a second span instead of overwriting the first.
func TestWritePerfettoKeepsEverySpan(t *testing.T) {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvAssign, Client: 1, Job: 1, VSec: 2})
	f.Emit(FEvent{Kind: FEvJobCancel, Job: 1, VSec: 3})
	f.Emit(FEvent{Kind: FEvAssign, Client: 1, Job: 2, VSec: 5})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 1, Job: 2, VSec: 6})
	var b bytes.Buffer
	if err := WritePerfetto(&b, f.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []perfettoEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type span struct {
		pid        int
		start, end float64
	}
	var got []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			got = append(got, span{ev.Pid, ev.Ts, ev.Ts + ev.Dur})
		}
	}
	want := []span{{perfettoPid + 1, 2e6, 3e6}, {perfettoPid + 2, 5e6, 6e6}}
	if !slices.Equal(got, want) {
		t.Fatalf("ownership spans %+v, want %+v", got, want)
	}
}
