package solver

import (
	"encoding/gob"
	"io"

	"gridsat/internal/cnf"
)

// CheckpointKind selects between the paper's two checkpoint flavors (§3.4).
type CheckpointKind int

// Checkpoint kinds.
const (
	// LightCheckpoint records only the level-0 assignments. Small; the
	// paper updates it whenever level 0 grows.
	LightCheckpoint CheckpointKind = iota
	// HeavyCheckpoint additionally records the learned clauses (the paper
	// estimates ~0.5 GB per client at full scale).
	HeavyCheckpoint
)

// Checkpoint is a restartable snapshot of a client's solver progress. The
// initial clauses are not included: they are reconstructed from the problem
// file, exactly as the paper prescribes.
type Checkpoint struct {
	Kind    CheckpointKind
	NumVars int
	// Level0 is the permanent assignment prefix.
	Level0 []cnf.Lit
	// Learnts is populated for heavy checkpoints only.
	Learnts []cnf.Clause
	// Cube is the solver's guiding path at checkpoint time, so a restored
	// subproblem keeps its place (and 2^-d weight) in the split tree.
	Cube []cnf.Lit
}

// Checkpoint captures the solver's current progress. For a heavy
// checkpoint, learntMaxCount caps the clauses saved (0 = all).
func (s *Solver) Checkpoint(kind CheckpointKind, learntMaxCount int) *Checkpoint {
	cp := &Checkpoint{
		Kind:    kind,
		NumVars: s.nVars,
		Level0:  s.Level0Lits(),
		Cube:    s.path,
	}
	if kind == HeavyCheckpoint {
		for _, r := range s.learnts {
			if s.ca.Deleted(r) {
				continue
			}
			cp.Learnts = append(cp.Learnts, s.clauseAt(r))
			if learntMaxCount > 0 && len(cp.Learnts) >= learntMaxCount {
				break
			}
		}
	}
	return cp
}

// Save writes the checkpoint in a self-describing binary form (gob). The
// paper stores light checkpoints whenever level 0 grows and heavy ones
// periodically; both round-trip through Save/LoadCheckpoint.
func (cp *Checkpoint) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(cp)
}

// LoadCheckpoint reads a checkpoint written by Save.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// Restore rebuilds a solver from the problem formula and a checkpoint: its
// level-0 assignments as assumptions, its learned clauses and cube.
func Restore(base *cnf.Formula, cp *Checkpoint, opts Options) (*Solver, error) {
	return NewFromSubproblem(base, &Subproblem{NumVars: cp.NumVars, Assumptions: cp.Level0,
		Learnts: cp.Learnts, Cube: cp.Cube}, opts)
}
