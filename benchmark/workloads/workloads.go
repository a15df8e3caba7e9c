// Package workloads holds gridbench's explicit instance lists (the JSON
// files beside this one), turns them into DIMACS inputs as a pure function
// of the benchmark seed, and checks the models the program returns.
//
// Every job is a pinned base formula (family, parameters and generator
// seed fixed in the JSON) scrambled by the run's seed: variables renamed,
// polarities flipped, clauses and literals reordered. Scrambling keeps the
// verdict and the proof complexity, so expected verdicts hold for every
// seed and run time varies by the solver's luck on one instance, not by
// the tenfold hardness spread between fresh random instances.
package workloads

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"gridsat/internal/cnf"
	"gridsat/internal/gen"
)

//go:embed *.json
var files embed.FS

// Names lists the workloads in the order gridbench runs them.
var Names = []string{"seq-mix", "cluster-stream", "serve-small", "des-grid"}

// Kinds of workload: which user-facing surface carries the jobs.
const (
	KindSolve   = "solve"   // one `gridsat solve` process per job
	KindSim     = "sim"     // one `gridsat sim` process per job
	KindCluster = "cluster" // POST /jobs on a serve + 2 clients cluster
)

// Spec is one job slot of a workload.
type Spec struct {
	Name   string  `json:"name"`
	Family string  `json:"family"`
	N      int     `json:"n"`
	M      int     `json:"m,omitempty"`
	Ratio  float64 `json:"ratio,omitempty"`
	Value  uint64  `json:"value,omitempty"`
	// GenSeed pins the base formula; the benchmark seed never changes it.
	GenSeed int64 `json:"gen_seed,omitempty"`
	// Expect is the pinned verdict, "SAT" or "UNSAT".
	Expect string `json:"expect"`
	// Probe marks the one instance the layer probes use in a role: random,
	// php and structured (the three solver regimes), sat, proof, stream, small.
	Probe string `json:"probe,omitempty"`
	// Sim-only: testbed, split strategy and the Blue Horizon batch job.
	Testbed  string `json:"testbed,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Batch    bool   `json:"batch,omitempty"`
}

// Workload is one JSON file.
type Workload struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// DeadlineSec bounds one job; a job that misses it is a failed
	// operation.
	DeadlineSec float64 `json:"deadline_s"`
	// ThinkMs is how long the caller of a service workload waits between
	// seeing a verdict and submitting the next job. Jobs go one at a time
	// everywhere, so this keeps every assignment out of the window in which
	// a client that has just reported drops it (defect D2 in the README).
	ThinkMs float64 `json:"think_ms,omitempty"`
	Jobs    []Spec  `json:"jobs"`
}

// Load reads one embedded workload file.
func Load(name string) (*Workload, error) {
	raw, err := files.ReadFile(name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(Names, ", "))
	}
	var w Workload
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if w.Name != name || len(w.Jobs) == 0 || w.DeadlineSec <= 0 {
		return nil, fmt.Errorf("workload %s: name, jobs and deadline_s are required", name)
	}
	if w.Kind != KindSolve && w.Kind != KindSim && w.Kind != KindCluster {
		return nil, fmt.Errorf("workload %s: unknown kind %q", name, w.Kind)
	}
	for _, s := range w.Jobs {
		if s.Expect != "SAT" && s.Expect != "UNSAT" {
			return nil, fmt.Errorf("workload %s: job %s: expect must be SAT or UNSAT", name, s.Name)
		}
		if _, err := s.base(); err != nil {
			return nil, fmt.Errorf("workload %s: job %s: %w", name, s.Name, err)
		}
	}
	return &w, nil
}

// base builds the pinned, unscrambled formula.
func (s Spec) base() (*cnf.Formula, error) {
	m := s.M
	if m == 0 {
		m = int(s.Ratio * float64(s.N))
	}
	switch s.Family {
	case "random3sat":
		return gen.RandomKSAT(s.N, m, 3, s.GenSeed), nil
	case "planted3sat":
		return gen.PlantedKSAT(s.N, m, 3, s.GenSeed), nil
	case "pigeonhole":
		return gen.Pigeonhole(s.N), nil
	case "coloring":
		return gen.GraphColoring(s.N, m, 3, s.GenSeed), nil
	case "miter":
		return gen.AdderMiter(s.N), nil
	case "miterbug":
		return gen.AdderMiterBug(s.N), nil
	case "factor":
		return gen.FactoringLike(s.N, s.Value), nil
	case "parity":
		return gen.ParityChain(s.N, m, s.Expect == "SAT", s.GenSeed), nil
	case "xor":
		return gen.XORSystem(s.N, m, s.Expect == "SAT", s.GenSeed), nil
	case "latin":
		return gen.LatinSquare(s.N, m, s.GenSeed), nil
	}
	return nil, fmt.Errorf("unknown family %q", s.Family)
}

// Instance is one generated job: the slot it came from and the input the
// program sees.
type Instance struct {
	Slot    int
	Spec    Spec
	Formula *cnf.Formula
	DIMACS  []byte
}

// Pass generates the jobs of one pass over the workload, in the order they
// are submitted. Both the scrambles and the order are a pure function of
// (seed, pass): two calls return byte-identical inputs.
func (w *Workload) Pass(seed int64, pass int) []Instance {
	out := make([]Instance, len(w.Jobs))
	for i, s := range w.Jobs {
		base, err := s.base()
		if err != nil {
			panic(err) // Load already built every base once
		}
		f := Scramble(base, mix(seed, pass, i))
		f.Comment = fmt.Sprintf("gridbench %s/%s seed=%d pass=%d", w.Name, s.Name, seed, pass)
		var buf bytes.Buffer
		_ = cnf.WriteDIMACS(&buf, f) // bytes.Buffer writes cannot fail
		out[i] = Instance{Slot: i, Spec: s, Formula: f, DIMACS: buf.Bytes()}
	}
	rng := rand.New(rand.NewSource(mix(seed, pass, -1)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mix folds the run seed, the pass and the slot into one generator seed.
func mix(seed int64, pass, slot int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(pass+1)*0xBF58476D1CE4E5B9 + uint64(slot+2)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 29
	return int64(x >> 1)
}

// Scramble renames variables by a seeded permutation, flips the polarity
// of a seeded half of them, and shuffles clause and literal order.
func Scramble(base *cnf.Formula, seed int64) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(base.NumVars)
	flip := make([]bool, base.NumVars)
	for i := range flip {
		flip[i] = rng.Intn(2) == 1
	}
	f := cnf.NewFormula(base.NumVars)
	for _, ci := range rng.Perm(len(base.Clauses)) {
		c := base.Clauses[ci]
		out := make(cnf.Clause, len(c))
		for i, l := range c {
			out[i] = cnf.MkLit(cnf.Var(perm[l.Var()]), l.Neg() != flip[l.Var()])
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		f.AddClause(out)
	}
	return f
}

// CheckModel verifies a model given as DIMACS literals against f with the
// benchmark's own evaluator: every variable assigned once, every clause
// holding a true literal.
func CheckModel(f *cnf.Formula, lits []int) error {
	val := make([]int8, f.NumVars+1)
	for _, l := range lits {
		v := l
		if v < 0 {
			v = -v
		}
		if v == 0 || v > f.NumVars {
			return fmt.Errorf("model literal %d out of range 1..%d", l, f.NumVars)
		}
		s := int8(1)
		if l < 0 {
			s = -1
		}
		if val[v] != 0 && val[v] != s {
			return fmt.Errorf("model assigns variable %d both ways", v)
		}
		val[v] = s
	}
	for i, c := range f.Clauses {
		ok := false
		for _, l := range c {
			d := l.DIMACS()
			if (d > 0 && val[d] > 0) || (d < 0 && val[-d] < 0) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("model falsifies clause %d", i)
		}
	}
	return nil
}

// ParseSolution reads the DIMACS solver output convention: an "s" line
// with the verdict and, for SAT, "v" lines ending in 0. The verdict is
// returned as SAT, UNSAT or UNKNOWN.
func ParseSolution(out []byte) (verdict string, model []int, err error) {
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, "s "):
			switch strings.TrimSpace(line[2:]) {
			case "SATISFIABLE":
				verdict = "SAT"
			case "UNSATISFIABLE":
				verdict = "UNSAT"
			default:
				verdict = "UNKNOWN"
			}
		case strings.HasPrefix(line, "v"):
			for _, tok := range strings.Fields(line[1:]) {
				n, perr := strconv.Atoi(tok)
				if perr != nil {
					return "", nil, fmt.Errorf("bad model literal %q", tok)
				}
				if n != 0 {
					model = append(model, n)
				}
			}
		}
	}
	if verdict == "" {
		return "", nil, fmt.Errorf("no s line in solver output")
	}
	return verdict, model, nil
}

// Check compares one job's outcome with its pinned verdict and, for SAT,
// verifies the model.
func (in Instance) Check(verdict string, model []int) error {
	if verdict != in.Spec.Expect {
		return fmt.Errorf("job %s: verdict %s, want %s", in.Spec.Name, verdict, in.Spec.Expect)
	}
	if verdict == "SAT" {
		if err := CheckModel(in.Formula, model); err != nil {
			return fmt.Errorf("job %s: %w", in.Spec.Name, err)
		}
	}
	return nil
}

// ProbeRoles are the roles the workload files hand out with "probe".
var ProbeRoles = []string{"random", "php", "structured", "sat", "proof", "stream", "small"}

// ProbeInstances returns, for each probe role, the pass-0 instance of the
// job marked with it.
func ProbeInstances(seed int64) (map[string]Instance, error) {
	out := map[string]Instance{}
	for _, name := range Names {
		w, err := Load(name)
		if err != nil {
			return nil, err
		}
		for _, in := range w.Pass(seed, 0) {
			if in.Spec.Probe != "" {
				out[in.Spec.Probe] = in
			}
		}
	}
	for _, role := range ProbeRoles {
		if _, ok := out[role]; !ok {
			return nil, fmt.Errorf("no job is marked \"probe\": %q", role)
		}
	}
	return out, nil
}
