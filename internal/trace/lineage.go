package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// This file reads the run's search-space split lineage — the paper's
// Figure-2 picture of how the initial problem was recursively divided
// across the grid — off a flight log alone. Every event that hands over,
// keeps or closes a subproblem carries its cube, so the tree is the set of
// recorded cubes: one node per (job, cube), whose parent is the node of
// its longest recorded proper prefix. A split's donor records the cofactor
// it kept (split-done), each recipient the one it started (split-accept),
// so the cofactors of one split, however many and whenever they land, are
// siblings under one fork, and each accept adds exactly one leaf: a
// finished tree has accepts+1 leaves regardless of split arity. A
// recovered or migrated cube reuses its node.

// Node statuses.
const (
	NodeOpen  = "open"  // still being solved (or run ended first)
	NodeSplit = "split" // interior: forked into two or more children
	NodeUNSAT = "unsat" // exhausted
	NodeSAT   = "sat"   // produced the model
	NodeLost  = "lost"  // owner left and the piece was never recovered
)

// LineageNode is one subproblem instance in the split tree.
type LineageNode struct {
	ID int `json:"id"`
	// Cube is the subproblem's guiding path, as flight events carry it.
	Cube string `json:"cube,omitempty"`
	// Owner is the client solving this piece (the latest owner after
	// migrations or crash recovery).
	Owner int `json:"owner"`
	// SplitID is the split that created this node (0 for the root and for
	// donor-continuation halves).
	SplitID int    `json:"split_id,omitempty"`
	Status  string `json:"status"`
	// BornVSec / EndVSec bound the node's lifetime on the recording
	// shell's clock (virtual seconds in the DES, seconds since start live).
	BornVSec float64 `json:"born_vsec,omitempty"`
	EndVSec  float64 `json:"end_vsec,omitempty"`
	// BornEv is the flight-log event that created the node.
	BornEv uint64 `json:"born_ev,omitempty"`
	// Per-subtree stats: events attributed to this node while it was the
	// owner's current piece.
	ShareFlushes int64 `json:"share_flushes,omitempty"`
	MemSheds     int64 `json:"mem_sheds,omitempty"`
	SplitReqs    int64 `json:"split_requests,omitempty"`
	Migrations   int64 `json:"migrations,omitempty"`

	Children []*LineageNode `json:"children,omitempty"`
}

// LineageTree is the reconstructed split tree plus flat bookkeeping.
type LineageTree struct {
	Root  *LineageNode `json:"root"`
	nodes []*LineageNode
}

// Nodes returns every node, in creation order.
func (t *LineageTree) Nodes() []*LineageNode { return t.nodes }

// Leaves returns the leaf nodes (no children), in creation order.
func (t *LineageTree) Leaves() []*LineageNode {
	var out []*LineageNode
	for _, n := range t.nodes {
		if len(n.Children) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Depth returns the deepest leaf's depth (root = 0, empty tree = -1).
func (t *LineageTree) Depth() int {
	if t.Root == nil {
		return -1
	}
	var walk func(n *LineageNode, d int) int
	walk = func(n *LineageNode, d int) int {
		best := d
		for _, c := range n.Children {
			if cd := walk(c, d+1); cd > best {
				best = cd
			}
		}
		return best
	}
	return walk(t.Root, 0)
}

// LineageMetrics are per-tree split-quality aggregates — the numbers a
// strategy ablation compares: how evenly splits divided the work and how
// deep the guiding-path tree had to grow before subproblems died.
type LineageMetrics struct {
	Nodes  int `json:"nodes"`
	Leaves int `json:"leaves"`
	Depth  int `json:"depth"`
	// MaxFanout is the widest fork (2 for pure first-decision trees, up to
	// 2^k for a dilemma strategy).
	MaxFanout int `json:"max_fanout,omitempty"`
	// BalanceMean averages, over interior nodes, the ratio of the smallest
	// to the largest child-subtree leaf count: 1.0 means every fork divided
	// its work perfectly evenly.
	BalanceMean float64 `json:"balance_mean,omitempty"`
	// UnsatLeaves counts refuted leaves; KillDepthMean/Max summarize how
	// deep in the tree they were killed.
	UnsatLeaves   int     `json:"unsat_leaves,omitempty"`
	KillDepthMean float64 `json:"kill_depth_mean,omitempty"`
	KillDepthMax  int     `json:"kill_depth_max,omitempty"`
}

// Metrics computes the tree's split-quality aggregates in one walk.
func (t *LineageTree) Metrics() LineageMetrics {
	m := LineageMetrics{Nodes: len(t.nodes), Leaves: len(t.Leaves()), Depth: t.Depth()}
	if t.Root == nil {
		return m
	}
	var balSum float64
	var balN int
	var killSum int64
	var walk func(n *LineageNode, d int) int // returns subtree leaf count
	walk = func(n *LineageNode, d int) int {
		if len(n.Children) == 0 {
			if n.Status == NodeUNSAT {
				m.UnsatLeaves++
				killSum += int64(d)
				if d > m.KillDepthMax {
					m.KillDepthMax = d
				}
			}
			return 1
		}
		if len(n.Children) > m.MaxFanout {
			m.MaxFanout = len(n.Children)
		}
		total, minL, maxL := 0, 0, 0
		for i, c := range n.Children {
			l := walk(c, d+1)
			total += l
			if i == 0 || l < minL {
				minL = l
			}
			if l > maxL {
				maxL = l
			}
		}
		balSum += float64(minL) / float64(maxL)
		balN++
		return total
	}
	walk(t.Root, 0)
	if balN > 0 {
		m.BalanceMean = balSum / float64(balN)
	}
	if m.UnsatLeaves > 0 {
		m.KillDepthMean = float64(killSum) / float64(m.UnsatLeaves)
	}
	return m
}

// lineageBuilder folds flight events into a tree.
type lineageBuilder struct {
	tree   *LineageTree
	byCube map[lineageKey]*LineageNode
	// cur maps a client to the node it is currently solving, the node its
	// share flushes, memory sheds and split requests count against.
	cur map[int]*LineageNode
}

type lineageKey struct {
	job  int
	cube string
}

// node returns ev's subproblem node, creating it under the node of the
// cube's longest recorded proper prefix when the cube is new.
func (b *lineageBuilder) node(ev FEvent) *LineageNode {
	if n := b.byCube[lineageKey{ev.Job, ev.Cube}]; n != nil {
		return n
	}
	n := &LineageNode{ID: len(b.tree.nodes) + 1, Cube: ev.Cube, Status: NodeOpen,
		BornVSec: ev.VSec, BornEv: ev.ID}
	if ev.Kind == FEvSplitAccept {
		n.SplitID = ev.SplitID
	}
	b.tree.nodes = append(b.tree.nodes, n)
	b.byCube[lineageKey{ev.Job, ev.Cube}] = n
	for pre := ev.Cube; pre != ""; {
		pre = pre[:max(strings.LastIndexByte(pre, ' '), 0)]
		if p := b.byCube[lineageKey{ev.Job, pre}]; p != nil {
			if p.Status != NodeSplit {
				p.Status, p.EndVSec = NodeSplit, ev.VSec
			}
			p.Children = append(p.Children, n)
			return n
		}
	}
	if b.tree.Root == nil {
		b.tree.Root = n
	}
	return n
}

// own makes n the piece client solves, open again if it was lost.
func (b *lineageBuilder) own(client int, n *LineageNode) {
	n.Owner = client
	if n.Status == NodeLost {
		n.Status, n.EndVSec = NodeOpen, 0
	}
	b.cur[client] = n
}

// end closes n with status at ev.
func (b *lineageBuilder) end(n *LineageNode, status string, ev FEvent) {
	n.Status, n.EndVSec = status, ev.VSec
	delete(b.cur, ev.Client)
}

// BuildLineage reads the split tree off a flight log. Logs that record no
// subproblem produce an empty tree (nil Root).
func BuildLineage(events []FEvent) *LineageTree {
	b := &lineageBuilder{
		tree:   &LineageTree{},
		byCube: map[lineageKey]*LineageNode{},
		cur:    map[int]*LineageNode{},
	}
	for _, ev := range events {
		switch ev.Kind {
		case FEvAssign, FEvSplitAccept, FEvSplitDone, FEvRecover:
			b.own(ev.Client, b.node(ev))
		case FEvMigrate:
			n := b.node(ev)
			if b.cur[ev.Client] == n {
				delete(b.cur, ev.Client)
			}
			n.Migrations++
			b.own(ev.Peer, n)
		case FEvSubUNSAT:
			b.end(b.node(ev), NodeUNSAT, ev)
		case FEvVerdict:
			if ev.Detail == "SAT" {
				b.end(b.node(ev), NodeSAT, ev)
			}
		case FEvClientLeave:
			if n := b.cur[ev.Client]; n != nil && n.Status == NodeOpen {
				b.end(n, NodeLost, ev)
			}
			delete(b.cur, ev.Client)
		case FEvShareFlush:
			if n := b.cur[ev.Client]; n != nil {
				n.ShareFlushes++
			}
		case FEvMemShed:
			if n := b.cur[ev.Client]; n != nil {
				n.MemSheds++
			}
		case FEvSplitRequest:
			if n := b.cur[ev.Client]; n != nil {
				n.SplitReqs++
			}
		}
	}
	return b.tree
}

// WriteJSON writes the tree (root-recursive) with its quality metrics.
func (t *LineageTree) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		LineageMetrics
		Root *LineageNode `json:"root"`
	}{t.Metrics(), t.Root})
}

// WriteDOT renders the tree for Graphviz: one box per subproblem labeled
// with its owner, status, and per-subtree stats; split edges carry the
// split ID.
func (t *LineageTree) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph lineage {"); err != nil {
		return err
	}
	fmt.Fprintln(w, `  node [shape=box, fontname="monospace"];`)
	for _, n := range t.nodes {
		label := fmt.Sprintf("#%d client %d\\n%s", n.ID, n.Owner, n.Status)
		if n.EndVSec > n.BornVSec {
			label += fmt.Sprintf("\\n%.1f-%.1f vs", n.BornVSec, n.EndVSec)
		}
		if n.ShareFlushes > 0 || n.MemSheds > 0 {
			label += fmt.Sprintf("\\nflush=%d shed=%d", n.ShareFlushes, n.MemSheds)
		}
		color := map[string]string{
			NodeUNSAT: "lightblue", NodeSAT: "palegreen",
			NodeSplit: "lightgray", NodeLost: "lightsalmon",
		}[n.Status]
		attrs := fmt.Sprintf("label=\"%s\"", label)
		if color != "" {
			attrs += fmt.Sprintf(", style=filled, fillcolor=%q", color)
		}
		if _, err := fmt.Fprintf(w, "  n%d [%s];\n", n.ID, attrs); err != nil {
			return err
		}
		for _, c := range n.Children {
			edge := ""
			if c.SplitID != 0 {
				edge = fmt.Sprintf(" [label=\"s%d\"]", c.SplitID)
			}
			if _, err := fmt.Fprintf(w, "  n%d -> n%d%s;\n", n.ID, c.ID, edge); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
