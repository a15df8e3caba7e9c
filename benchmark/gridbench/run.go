package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"gridsat/benchmark/harness"
	"gridsat/benchmark/runner"
	"gridsat/benchmark/workloads"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run: what the contract's last line carries.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	metrics   []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// print writes every metric by name with its unit, then the JSON line.
// A run whose outputs were wrong prints no metrics.
func (r *result) print(workload string, seed int64, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("# %s seed=%d %s: attempted=%d failed=%d correct=%v\n", workload, seed, kind, r.Attempted, r.Failed, r.Correct)
	ms := map[string]any{}
	if r.Correct {
		for _, m := range r.metrics {
			fmt.Printf("%-36s %16.6g %s\n", m.name, m.value, m.unit)
			ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{ // plain maps of numbers and strings always marshal
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms})
	fmt.Println(string(line))
}

// runOne runs one workload at one seed, untraced (end-to-end metrics) or
// traced (per-layer metrics and the span file).
func (b *bench) runOne(name string, seed int64, traced bool) (*result, error) {
	w, err := workloads.Load(name)
	if err != nil {
		return nil, err
	}
	run := runner.New(w, seed, b.root, b.group)
	run.Verbose = b.verbose
	defer run.Teardown()
	if traced {
		return b.tracedRun(run)
	}

	// Set-up is repeated so that its median is steady; the last one's
	// cluster carries the measurement.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		run.Teardown()
		s, err := run.Setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	m, err := run.Measure(b.seconds)
	res := &result{Correct: !errors.Is(err, harness.ErrIncorrect), Attempted: max(m.Attempted, 1), Failed: m.Failed}
	if err != nil {
		return res, err
	}
	wall, _ := endToEnd(m)
	res.add("setup_s", harness.Median(setups), "s")
	res.add("wall_s", wall, "s")
	return res, nil
}

// endToEnd reduces a measurement to the pass wall time (median over
// complete passes) and the job times of those passes. When a deadline
// failure left no complete pass, the abandoned passes stand in: their wall
// includes the deadline that was waited out.
func endToEnd(m *runner.Measurement) (wall float64, jobs []float64) {
	var walls []float64
	for _, complete := range []bool{true, false} {
		for _, p := range m.Passes {
			if p.Complete != complete {
				continue
			}
			walls = append(walls, p.Wall)
			for _, s := range p.Samples {
				jobs = append(jobs, s.Wall)
			}
		}
		if len(walls) > 0 {
			break
		}
	}
	return harness.Median(walls), jobs
}

// tracedRun measures half the time untraced and half with the span
// recorder and the program's flight recorder on, takes the per-layer
// numbers from the traced half and from the probes, and writes the spans.
func (b *bench) tracedRun(run *runner.Run) (*result, error) {
	if _, err := run.Setup(); err != nil {
		return nil, err
	}
	plain, err := run.Measure(b.seconds / 2)
	if err != nil {
		return &result{Correct: !errors.Is(err, harness.ErrIncorrect), Attempted: max(plain.Attempted, 1), Failed: plain.Failed}, err
	}
	run.Teardown()

	run.Rec = harness.NewRecorder()
	run.Flight = true
	if _, err := run.Setup(); err != nil {
		return nil, err
	}
	lr := newLayerRun(run)
	m, err := run.Measure(b.seconds / 2)
	if err == nil {
		err = run.VerifyRepeat(m.Passes[0])
	}
	res := &result{Correct: !errors.Is(err, harness.ErrIncorrect),
		Attempted: max(plain.Attempted+m.Attempted, 1), Failed: plain.Failed + m.Failed}
	if err != nil {
		return res, err
	}
	lr.finish(res, plain, m)
	run.Teardown()
	if err := runProbes(res, run); err != nil {
		return res, err
	}
	path := filepath.Join(b.out, "trace-"+run.W.Name+".json")
	if err := run.Rec.Write(path); err != nil {
		return res, err
	}
	fmt.Printf("# spans written to %s\n", strings.TrimPrefix(path, b.root+"/"))
	return res, nil
}
