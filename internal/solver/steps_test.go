package solver

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"reflect"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

// updateSteps regenerates testdata/steps.json from the engine under test.
// The Fidelity2003 records were written by the engine of commit 16d7597
// (PR 14), before PR 15 touched the kernel, under DefaultOptions' values of
// that time; PR 18 added the DefaultOptions/ records without touching them.
// Regenerate only in a PR that means to change the search itself.
var updateSteps = flag.Bool("update-steps", false, "rewrite testdata/steps.json from this engine")

const stepsFile = "testdata/steps.json"

// stepRecord is everything one scenario pins: the verdict, every Stats
// field, the clause-database shape at the end, the model, and an FNV-64a
// hash over every clause the engine emitted (OnLemma, then OnLearn
// exports) in order, with its literal order.
type stepRecord struct {
	Status     string
	Stats      Stats
	Learnts    int
	ArenaBytes int64
	Model      string `json:",omitempty"`
	Emitted    string
}

// stepInstances are small enough that the whole matrix runs in seconds
// and large enough that restarts, reduceDB, level-0 pruning and arena GC
// all fire in at least some cells.
var stepInstances = []struct {
	name string
	f    func() *cnf.Formula
}{
	{"r3-unsat-n150", func() *cnf.Formula { return gen.RandomKSAT(150, 600, 3, 1) }},
	{"r3-sat-n150", func() *cnf.Formula { return gen.RandomKSAT(150, 600, 3, 3) }},
	{"planted3-n200", func() *cnf.Formula { return gen.PlantedKSAT(200, 840, 3, 1) }},
	{"php7", func() *cnf.Formula { return gen.Pigeonhole(7) }},
	{"adder-miter-24", func() *cnf.Formula { return gen.AdderMiter(24) }},
	{"factor12-sat", func() *cnf.Formula { return gen.FactoringLike(12, 3599) }},
	{"factor12-prime", func() *cnf.Formula { return gen.FactoringLike(12, 4093) }},
	{"color4-n50", func() *cnf.Formula { return gen.GraphColoring(50, 220, 4, 2) }},
	{"latin14", func() *cnf.Formula { return gen.LatinSquare(14, 60, 1) }},
	{"xor-n120", func() *cnf.Formula { return gen.XORSystem(120, 110, true, 2) }},
}

// emitHash folds emitted clauses into one running hash.
type emitHash struct{ h hash.Hash64 }

func newEmitHash() *emitHash { return &emitHash{h: fnv.New64a()} }

func (e *emitHash) clause(tag byte, c cnf.Clause, extra int) {
	buf := make([]byte, 0, 8+4*len(c))
	buf = append(buf, tag, byte(extra), byte(len(c)), byte(len(c)>>8))
	for _, l := range c {
		buf = append(buf, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	e.h.Write(buf)
}

// hook wires the hash into the engine's two clause outlets.
func (e *emitHash) hook(o Options) Options {
	o.ShareMaxLen = 8
	o.OnLemma = func(c cnf.Clause) { e.clause('L', c, 0) }
	o.OnLearn = func(c cnf.Clause, lbd int) { e.clause('S', c, lbd) }
	return o
}

func (e *emitHash) record(s *Solver, r Result) stepRecord {
	rec := stepRecord{
		Status:     r.Status.String(),
		Stats:      s.Stats(),
		Learnts:    s.NumLearnts(),
		ArenaBytes: s.ArenaBytes(),
		Emitted:    fmt.Sprintf("%016x", e.h.Sum64()),
	}
	if r.Status == StatusSAT {
		m := make([]byte, len(r.Model))
		for v, val := range r.Model {
			m[v] = "?10"[val]
		}
		rec.Model = string(m)
	}
	return rec
}

// pauseAt is the conflict count at which the two-phase scenarios stop the
// first phase to split, import or checkpoint.
const pauseAt = 150

// stepCell names one record of the matrix. The 2003 engine's cells keep the
// bare "instance/scenario" names they had when it was the only engine; any
// other preset's carry its constructor's name in front.
func stepCell(preset, instance, scenario string) string {
	if preset == "Fidelity2003" {
		return instance + "/" + scenario
	}
	return preset + "/" + instance + "/" + scenario
}

// stepScenarios maps a scenario name to a run over one formula from one
// preset's options. Each returns one record per solver it drove to
// completion.
var stepScenarios = []struct {
	name string
	run  func(f *cnf.Formula, o Options) []stepRecord
}{
	{"default", runPlain},
	{"minimize+phase", func(f *cnf.Formula, o Options) []stepRecord {
		o.MinimizeLearnts, o.PhaseSaving = true, true
		return runPlain(f, o)
	}},
	{"seed7", func(f *cnf.Formula, o Options) []stepRecord {
		o.Seed = 7
		return runPlain(f, o)
	}},
	{"small-db", func(f *cnf.Formula, o Options) []stepRecord {
		// A tight learnt cap forces reduceDB, lazy watcher drops and arena
		// compaction many times per run.
		o.MaxLearnts = 120
		o.RestartBase = 64
		return runPlain(f, o)
	}},
	{"split", runSplit},
	{"import", runImport},
	{"checkpoint", runCheckpoint},
}

func runPlain(f *cnf.Formula, o Options) []stepRecord {
	e := newEmitHash()
	s := New(f, e.hook(o))
	return []stepRecord{e.record(s, s.Solve(Limits{}))}
}

// runSplit pauses the donor, splits it (Figure 2), and finishes both
// halves: the donor continues on promoted, tainted assignments, the
// recipient is rebuilt by NewFromSubproblem with forwarded learnts — the
// taint, deps and local-clause paths of analyze and record. Minimization
// is on so litRedundant's dependency bookkeeping is walked too.
func runSplit(f *cnf.Formula, o Options) []stepRecord {
	o.MinimizeLearnts = true
	ed := newEmitHash()
	donor := New(f, ed.hook(o))
	r := donor.Solve(Limits{MaxConflicts: pauseAt})
	if r.Reason == ReasonSolved {
		return []stepRecord{ed.record(donor, r)}
	}
	sub, err := donor.Split(10, 200)
	if err != nil {
		// Paused at level 0: nothing to fork on; the donor just finishes.
		return []stepRecord{ed.record(donor, donor.Solve(Limits{}))}
	}
	er := newEmitHash()
	rcpt, err := NewFromSubproblem(f, sub, er.hook(o))
	if err != nil {
		panic(err)
	}
	return []stepRecord{
		ed.record(donor, donor.Solve(Limits{})),
		er.record(rcpt, rcpt.Solve(Limits{})),
	}
}

// runImport injects, at a fixed conflict count, the short clauses a
// differently-seeded solver learned from the same formula (so they are
// implied by it), then finishes: mergeImports' four cases and the
// imported-clause attribution in propagate and analyze.
func runImport(f *cnf.Formula, o Options) []stepRecord {
	po := o
	po.Seed = 99
	po.ShareMaxLen = 6
	var shared []cnf.Clause
	po.OnLearn = func(c cnf.Clause, _ int) { shared = append(shared, c) }
	New(f, po).Solve(Limits{MaxConflicts: 400})

	e := newEmitHash()
	s := New(f, e.hook(o))
	r := s.Solve(Limits{MaxConflicts: pauseAt})
	if r.Reason != ReasonSolved {
		if err := s.ImportClauses(shared); err != nil {
			panic(err)
		}
		r = s.Solve(Limits{})
	}
	return []stepRecord{e.record(s, r)}
}

// runCheckpoint pauses, takes a heavy checkpoint, restores it into a
// fresh solver and finishes there.
func runCheckpoint(f *cnf.Formula, o Options) []stepRecord {
	e := newEmitHash()
	s := New(f, e.hook(o))
	r := s.Solve(Limits{MaxConflicts: pauseAt})
	if r.Reason == ReasonSolved {
		return []stepRecord{e.record(s, r)}
	}
	cp := s.Checkpoint(HeavyCheckpoint, 0)
	e2 := newEmitHash()
	s2, err := Restore(f, cp, e2.hook(o))
	if err != nil {
		panic(err)
	}
	return []stepRecord{e.record(s, r), e2.record(s2, s2.Solve(Limits{}))}
}

// TestSearchIsStepIdentical pins the search itself: any change to the
// engine that is meant to make steps cheaper, not different, must leave
// every count, model and emitted clause of this matrix untouched.
func TestSearchIsStepIdentical(t *testing.T) {
	got := map[string][]stepRecord{}
	for _, in := range stepInstances {
		f := in.f()
		for _, p := range enginePresets {
			for _, sc := range stepScenarios {
				got[stepCell(p.name, in.name, sc.name)] = sc.run(f, p.opts())
			}
		}
	}
	if *updateSteps {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stepsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(stepsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]stepRecord
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d cells, the matrix has %d", stepsFile, len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; !reflect.DeepEqual(w, g) {
			t.Errorf("%s: search changed\n got %+v\nwant %+v", name, g, w)
		}
	}
}
