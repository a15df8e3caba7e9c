package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file reconstructs the run's search-space split lineage — the
// paper's Figure-2 picture of how the initial problem was recursively
// divided across the grid — from a flight log alone. The first
// split-accept event for a split ID forks the donor's current node into
// two children (the cofactor the donor kept, and the one the recipient
// received); every further accept carrying the same split ID — the other
// cofactors of a multi-way dilemma split, including leftovers served from
// the master's backlog later — attaches one more sibling under the same
// fork. Each accept therefore adds exactly one leaf, so a finished tree
// has exactly accepts+1 leaves regardless of split arity.

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
	tree *LineageTree
	// cur maps a client to the node it is currently solving.
	cur map[int]*LineageNode
	// last remembers a client's most recent node even after it closed, so
	// a split delivery that raced with the donor finishing still attaches
	// to the right place.
	last map[int]*LineageNode
	// orphans queues nodes whose owner left, FIFO — recover events reclaim
	// them in the same order the runtime reassigns checkpoints.
	orphans []*LineageNode
	// forks maps a split ID to the interior node it forked, so every
	// cofactor of a multi-way split lands as a sibling under one fork.
	forks map[int]*LineageNode
}

func (b *lineageBuilder) newNode(owner int, ev FEvent, splitID int) *LineageNode {
	n := &LineageNode{
		ID: len(b.tree.nodes) + 1, Owner: owner, Status: NodeOpen,
		BornVSec: ev.VSec, BornEv: ev.ID, SplitID: splitID,
	}
	b.tree.nodes = append(b.tree.nodes, n)
	b.cur[owner] = n
	b.last[owner] = n
	return n
}

// BuildLineage reconstructs the split tree from a flight log. Logs from
// runs without an assignment produce an empty tree (nil Root).
func BuildLineage(events []FEvent) *LineageTree {
	b := &lineageBuilder{
		tree:  &LineageTree{},
		cur:   map[int]*LineageNode{},
		last:  map[int]*LineageNode{},
		forks: map[int]*LineageNode{},
	}
	for _, ev := range events {
		switch ev.Kind {
		case FEvAssign:
			n := b.newNode(ev.Client, ev, 0)
			if b.tree.Root == nil {
				b.tree.Root = n
			}
		case FEvSplitAccept:
			b.acceptSplit(ev)
		case FEvSubUNSAT:
			if n := b.cur[ev.Client]; n != nil {
				n.Status = NodeUNSAT
				n.EndVSec = ev.VSec
				delete(b.cur, ev.Client)
			}
		case FEvMigrate:
			if n := b.cur[ev.Client]; n != nil {
				delete(b.cur, ev.Client)
				n.Owner = ev.Peer
				n.Migrations++
				b.cur[ev.Peer] = n
				b.last[ev.Peer] = n
			}
		case FEvClientLeave:
			if n := b.cur[ev.Client]; n != nil {
				delete(b.cur, ev.Client)
				n.Status = NodeLost
				n.EndVSec = ev.VSec
				b.orphans = append(b.orphans, n)
			}
		case FEvRecover:
			if len(b.orphans) > 0 {
				n := b.orphans[0]
				b.orphans = b.orphans[1:]
				n.Status = NodeOpen
				n.EndVSec = 0
				n.Owner = ev.Client
				b.cur[ev.Client] = n
				b.last[ev.Client] = n
			}
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
		case FEvVerdict:
			if ev.Detail == "SAT" {
				if n := b.cur[ev.Client]; n != nil {
					n.Status = NodeSAT
					n.EndVSec = ev.VSec
				}
			}
		}
	}
	return b.tree
}

// acceptSplit forks the donor's node on the first accept of a split ID:
// the donor keeps one cofactor (a fresh child node), the recipient starts
// another. Accepts that repeat an already-forked split ID — the remaining
// cofactors of a multi-way split, whenever they land — attach as further
// siblings under the same fork, keeping every cofactor of one split at the
// same tree depth. When the first delivery raced with the donor finishing
// its (already narrowed) piece, the closed node's verdict moves onto the
// donor-continuation child so the interior node is always a clean "split".
func (b *lineageBuilder) acceptSplit(ev FEvent) {
	donor, recipient := ev.Peer, ev.Client
	if p := b.forks[ev.SplitID]; ev.SplitID != 0 && p != nil {
		half := b.newNode(recipient, ev, ev.SplitID)
		p.Children = append(p.Children, half)
		return
	}
	d := b.cur[donor]
	closed := false
	if d == nil {
		if d = b.last[donor]; d == nil {
			// No recorded ancestry (truncated log): treat as a root-less
			// fragment by giving the recipient a standalone node.
			b.newNode(recipient, ev, ev.SplitID)
			return
		}
		closed = true
	}
	cont := b.newNode(donor, ev, 0)
	if closed {
		cont.Status = d.Status
		cont.EndVSec = d.EndVSec
		delete(b.cur, donor)
	}
	half := b.newNode(recipient, ev, ev.SplitID)
	d.Status = NodeSplit
	d.EndVSec = ev.VSec
	d.Children = append(d.Children, cont, half)
	if ev.SplitID != 0 {
		b.forks[ev.SplitID] = d
	}
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
