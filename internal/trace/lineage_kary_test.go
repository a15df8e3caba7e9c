package trace

import (
	"bytes"
	"strings"
	"testing"
)

// synthDilemmaLog models a k=2 dilemma split on variables 1 and 2: one
// issue to two live peers, the donor keeping one cofactor and returning a
// leftover to the master's backlog, served to a third peer later. All
// three accepts carry the same split ID.
func synthDilemmaLog() []FEvent {
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvRunStart, N: 4})
	f.Emit(FEvent{Kind: FEvAssign, Client: 1})
	req := f.Emit(FEvent{Kind: FEvSplitRequest, Client: 1, Detail: "timeout"})
	iss := f.Emit(FEvent{Kind: FEvSplitIssue, Client: 1, Peer: 2, SplitID: 1, N: 2, Parent: req})
	f.Emit(FEvent{Kind: FEvSplitDone, Client: 1, SplitID: 1, N: 1, Parent: iss, Cube: "1 2"})
	f.Emit(FEvent{Kind: FEvSplitAccept, Client: 2, Peer: 1, SplitID: 1, Parent: iss, Cube: "1 -2"})
	f.Emit(FEvent{Kind: FEvSplitAccept, Client: 3, Peer: 1, SplitID: 1, Parent: iss, Cube: "-1 2"})
	f.Emit(FEvent{Kind: FEvSplitAccept, Client: 4, Peer: 1, SplitID: 1, Parent: iss, Cube: "-1 -2"})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 1, Cube: "1 2"})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 2, Cube: "1 -2"})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 3, Cube: "-1 2"})
	f.Emit(FEvent{Kind: FEvSubUNSAT, Client: 4, Cube: "-1 -2"})
	f.Emit(FEvent{Kind: FEvVerdict, Detail: "UNSAT"})
	return f.Events()
}

// TestLineageKaryFanout pins the multi-way invariant: every accept adds
// exactly one leaf, and all cofactors of one split ID sit as siblings
// under a single fork at the same depth.
func TestLineageKaryFanout(t *testing.T) {
	events := synthDilemmaLog()
	if err := Validate(events); err != nil {
		t.Fatalf("synthetic dilemma log invalid: %v", err)
	}
	tree := BuildLineage(events)
	if tree.Root == nil {
		t.Fatal("no root")
	}
	// 3 accepts -> 4 leaves, one fork of arity 4 (donor cont + 3 cofactors).
	if got := len(tree.Leaves()); got != 4 {
		t.Fatalf("leaves = %d, want accepts+1 = 4", got)
	}
	if tree.Root.Status != NodeSplit || len(tree.Root.Children) != 4 {
		t.Fatalf("root fork arity = %d (%s), want 4", len(tree.Root.Children), tree.Root.Status)
	}
	if tree.Depth() != 1 {
		t.Fatalf("depth = %d, want 1: all cofactors sit at the fork's level", tree.Depth())
	}
	for i, c := range tree.Root.Children {
		if c.Status != NodeUNSAT {
			t.Errorf("child %d status %q, want unsat", i, c.Status)
		}
	}
	// The donor-continuation child has no split ID; the others carry it.
	if tree.Root.Children[0].SplitID != 0 {
		t.Errorf("continuation child carries split ID %d", tree.Root.Children[0].SplitID)
	}
	for _, c := range tree.Root.Children[1:] {
		if c.SplitID != 1 {
			t.Errorf("cofactor child carries split ID %d, want 1", c.SplitID)
		}
	}
}

// TestLineageMetricsKary checks the ablation aggregates on the dilemma log.
func TestLineageMetricsKary(t *testing.T) {
	m := BuildLineage(synthDilemmaLog()).Metrics()
	if m.Nodes != 5 || m.Leaves != 4 || m.Depth != 1 {
		t.Fatalf("nodes/leaves/depth = %d/%d/%d, want 5/4/1", m.Nodes, m.Leaves, m.Depth)
	}
	if m.MaxFanout != 4 {
		t.Fatalf("max fanout = %d, want 4", m.MaxFanout)
	}
	if m.BalanceMean != 1.0 {
		t.Fatalf("balance mean = %v, want 1.0 for single-leaf subtrees", m.BalanceMean)
	}
	if m.UnsatLeaves != 4 || m.KillDepthMean != 1.0 || m.KillDepthMax != 1 {
		t.Fatalf("kill stats = %d/%v/%d, want 4/1.0/1", m.UnsatLeaves, m.KillDepthMean, m.KillDepthMax)
	}
}

// TestLineageMetricsBinaryChain checks the metrics on the existing binary
// synthetic log: an unbalanced chain of two binary forks.
func TestLineageMetricsBinaryChain(t *testing.T) {
	m := BuildLineage(synthSplitLog()).Metrics()
	if m.Leaves != 3 || m.MaxFanout != 2 {
		t.Fatalf("leaves/fanout = %d/%d, want 3/2", m.Leaves, m.MaxFanout)
	}
	// Root forks into a 1-leaf and a 2-leaf subtree (balance 1/2); the
	// inner fork is 1-vs-1 (balance 1): mean 0.75.
	if m.BalanceMean != 0.75 {
		t.Fatalf("balance mean = %v, want 0.75", m.BalanceMean)
	}
	if m.UnsatLeaves != 3 || m.KillDepthMax != 2 {
		t.Fatalf("kill stats = %d/%d, want 3 unsat, max depth 2", m.UnsatLeaves, m.KillDepthMax)
	}
}

// TestSplitDoneKindKnown guards the flight-log schema: the split-done
// kind, the donor's record of the cofactor it kept, must validate and
// render with its cube.
func TestSplitDoneKindKnown(t *testing.T) {
	if !KnownKinds[FEvSplitDone] {
		t.Fatal("FEvSplitDone missing from KnownKinds")
	}
	f := NewFlight(nil)
	f.Emit(FEvent{Kind: FEvSplitDone, Client: 1, SplitID: 7, N: 3, Cube: "4 -9"})
	if err := Validate(f.Events()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"split-done"`) || !strings.Contains(buf.String(), `"cube":"4 -9"`) {
		t.Fatalf("JSONL missing the kind or the cube: %s", buf.String())
	}
}
