// Package runner drives one workload end to end through the surfaces a
// user touches: the gridsat CLI for the process workloads, POST /jobs and
// GET /jobs/{id} on a loopback cluster for the service workloads. Every
// verdict is checked before its time counts.
package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"gridsat/benchmark/harness"
	"gridsat/benchmark/workloads"
)

// maxPasses is how many scrambled passes Setup generates ahead of the
// clock; a run that gets through more of them starts over at pass 0.
const maxPasses = 8

// Run is one workload at one seed.
type Run struct {
	W    *workloads.Workload
	Seed int64
	Root string
	// Rec, when not nil, records a span around every boundary the harness
	// crosses; Flight additionally turns on the program's own flight
	// recorder (serve -trace, sim -trace).
	Rec    *harness.Recorder
	Flight bool
	// Verbose prints one line per finished job to standard error.
	Verbose bool

	group   *harness.Group
	bins    harness.Bins
	workDir string
	passes  [][]workloads.Instance
	cluster *harness.Cluster
}

// New prepares a run; nothing is built or started until Setup.
func New(w *workloads.Workload, seed int64, root string, g *harness.Group) *Run {
	return &Run{W: w, Seed: seed, Root: root, group: g,
		workDir: filepath.Join(root, harness.BuildDir, "work", w.Name)}
}

// Bins are the binaries Setup built.
func (r *Run) Bins() harness.Bins { return r.bins }

// Cluster is the live cluster of a service workload (nil otherwise).
func (r *Run) Cluster() *harness.Cluster { return r.cluster }

// Passes are the generated inputs, one slice of jobs per pass.
func (r *Run) Passes() [][]workloads.Instance { return r.passes }

// Setup does everything that precedes the first job: build the shipped
// binaries, generate every pass's inputs from the seed, and for a service
// workload boot the cluster and wait until both clients are registered.
// It returns how long that took.
func (r *Run) Setup() (float64, error) {
	start := time.Now()
	sp := r.Rec.Start("setup", "bench", "", 0)
	defer r.Rec.End(sp)
	var err error
	if r.bins, err = harness.Build(r.Root); err != nil {
		return 0, err
	}
	if err := os.RemoveAll(r.workDir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return 0, err
	}
	r.passes = make([][]workloads.Instance, maxPasses)
	for p := range r.passes {
		r.passes[p] = r.W.Pass(r.Seed, p)
		if r.W.Kind == workloads.KindCluster {
			continue // service jobs travel as request bodies
		}
		for _, in := range r.passes[p] {
			if err := os.WriteFile(r.path(p, in), in.DIMACS, 0o644); err != nil {
				return 0, err
			}
		}
	}
	if r.W.Kind == workloads.KindCluster {
		if err := r.boot(sp); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

func (r *Run) path(pass int, in workloads.Instance) string {
	return filepath.Join(r.workDir, fmt.Sprintf("p%d-%s.cnf", pass, in.Spec.Name))
}

// FlightPath is where the program's flight log goes when Flight is set.
func (r *Run) FlightPath() string { return filepath.Join(r.workDir, "flight.jsonl") }

func (r *Run) boot(parent int) error {
	flight := ""
	if r.Flight {
		flight = r.FlightPath()
	}
	c, err := harness.BootCluster(r.group, r.bins.Gridsat, flight, r.Rec, parent)
	if err != nil {
		r.group.StopAll()
		return err
	}
	r.cluster = c
	return nil
}

// Teardown stops the cluster, if any. The generated inputs stay.
func (r *Run) Teardown() {
	if r.cluster != nil {
		r.cluster.Stop()
		r.cluster = nil
	}
}

// Sample is one job as the harness saw it.
type Sample struct {
	// In is the job: its slot, its pinned spec and the formula it ran on.
	In workloads.Instance
	// Wall is submit (or process start) to verified verdict, in seconds.
	Wall float64
	// Service jobs: harness-side HTTP timings and the lifecycle split the
	// program reports on /jobs/{id}.
	SubmitMs      float64
	PollMs        []float64
	QueueWaitMs   float64
	FirstAssignMs float64
	SolveMs       float64
	// Process jobs: what the exited process cost.
	CPUSeconds float64
	PeakRSSMB  float64
	// Sim jobs: the summary line.
	Sim *SimSummary
}

// SimSummary is the "c outcome=..." line `gridsat sim` prints.
type SimSummary struct {
	VSec                       float64
	Splits, Props, Msgs, Bytes int64
}

// Pass is one pass over the workload's job list.
type Pass struct {
	Wall    float64
	Samples []Sample
	// Complete is false when a job missed its deadline and the pass was
	// abandoned.
	Complete bool
}

// Measurement is everything one Measure call observed.
type Measurement struct {
	Passes    []Pass
	Attempted int
	Failed    int
}

// errDeadline marks a job that did not finish in time: a failed operation.
var errDeadline = errors.New("deadline missed")

// Measure runs passes for the given number of seconds: the first pass
// always runs to its end, and another one starts only while the time used
// plus the previous pass's time still fits.
func (r *Run) Measure(seconds float64) (*Measurement, error) {
	m := &Measurement{}
	start := time.Now()
	root := r.Rec.Start("measure", "bench", "", 0)
	defer r.Rec.End(root)
	last := 0.0
	for p := 0; p == 0 || time.Since(start).Seconds()+last <= seconds; p++ {
		pass, err := r.onePass(p, root, m)
		m.Passes = append(m.Passes, pass)
		if errors.Is(err, errDeadline) {
			// The cluster may be wedged (defects D2/D3): replace it, off the clock.
			if m.Failed >= 2 {
				return m, nil
			}
			if r.W.Kind == workloads.KindCluster {
				r.Teardown()
				if err := r.boot(root); err != nil {
					return m, err
				}
			}
			continue
		}
		if err != nil {
			return m, err
		}
		last = pass.Wall
	}
	return m, nil
}

func (r *Run) onePass(p, parent int, m *Measurement) (Pass, error) {
	sp := r.Rec.Start("pass", "bench", "", parent)
	defer r.Rec.End(sp)
	pass := Pass{}
	start := time.Now()
	for _, in := range r.passes[p%maxPasses] {
		time.Sleep(time.Duration(r.W.ThinkMs * float64(time.Millisecond)))
		s, err := r.oneJob(p, in, sp)
		m.Attempted++
		if err != nil {
			if errors.Is(err, errDeadline) {
				// Measure carries on after this one, so say it here.
				m.Failed++
				fmt.Fprintf(os.Stderr, "gridbench: %s pass %d: %v\n", r.W.Name, p, err)
			}
			pass.Wall = time.Since(start).Seconds()
			return pass, err
		}
		pass.Samples = append(pass.Samples, s)
		if r.Verbose {
			fmt.Fprintf(os.Stderr, "  pass %d %-20s %8.3f s\n", p, s.In.Spec.Name, s.Wall)
		}
	}
	pass.Wall = time.Since(start).Seconds()
	pass.Complete = true
	return pass, nil
}

func (r *Run) oneJob(p int, in workloads.Instance, parent int) (Sample, error) {
	switch r.W.Kind {
	case workloads.KindCluster:
		return r.serviceJob(in, parent)
	case workloads.KindSim:
		return r.simJob(p, in, parent)
	default:
		return r.solveJob(p, in, parent)
	}
}

// VerifyRepeat runs every sim job of the measured pass 0 once more, off
// the clock, and requires the identical summary line: the simulator is
// deterministic, so vsec, splits, work, msgs and bytes must repeat.
func (r *Run) VerifyRepeat(first Pass) error {
	if r.W.Kind != workloads.KindSim {
		return nil
	}
	sp := r.Rec.Start("verify.repeat", "bench", "", 0)
	defer r.Rec.End(sp)
	for _, s := range first.Samples {
		again, err := r.simJob(0, s.In, sp)
		if err != nil {
			return err
		}
		if *again.Sim != *s.Sim {
			return fmt.Errorf("%w: sim %s did not repeat: %+v then %+v", harness.ErrIncorrect, s.In.Spec.Name, *s.Sim, *again.Sim)
		}
	}
	return nil
}

func (r *Run) deadline() time.Duration {
	return time.Duration(r.W.DeadlineSec * float64(time.Second))
}

// processJob runs one CLI invocation and checks its verdict.
func (r *Run) processJob(in workloads.Instance, span string, parent int, args ...string) (Sample, harness.RunResult, error) {
	sp := r.Rec.Start(span, "solver", in.Spec.Name, parent)
	res, err := harness.Run(r.deadline(), r.bins.Gridsat, args...)
	r.Rec.End(sp)
	if err != nil {
		return Sample{}, res, fmt.Errorf("%w: %v", errDeadline, err)
	}
	verdict, model, err := workloads.ParseSolution(res.Stdout)
	if err == nil {
		err = in.Check(verdict, model)
	}
	if err != nil {
		return Sample{}, res, fmt.Errorf("%w: %v", harness.ErrIncorrect, err)
	}
	return Sample{In: in, Wall: res.Wall.Seconds(),
		CPUSeconds: res.CPUSeconds, PeakRSSMB: res.PeakRSSMB}, res, nil
}

func (r *Run) solveJob(p int, in workloads.Instance, parent int) (Sample, error) {
	s, _, err := r.processJob(in, "proc.solve", parent, "solve", r.path(p%maxPasses, in))
	return s, err
}

var reSim = regexp.MustCompile(`c outcome=solved vsec=(\S+) .* splits=(\d+) .* work=(\d+)-props msgs=(\d+) bytes=(\d+)`)

func (r *Run) simJob(p int, in workloads.Instance, parent int) (Sample, error) {
	args := []string{"sim", "-threads", "1", "-timeout-vsec", "100000",
		"-testbed", in.Spec.Testbed, "-seed", strconv.FormatInt(r.Seed, 10)}
	if in.Spec.Strategy != "" {
		args = append(args, "-split-strategy", in.Spec.Strategy)
	}
	if in.Spec.Batch {
		args = append(args, "-batch")
	}
	if r.Flight {
		args = append(args, "-trace", r.FlightPath())
	}
	s, res, err := r.processJob(in, "proc.sim", parent, append(args, r.path(p%maxPasses, in))...)
	if err != nil {
		return s, err
	}
	f := reSim.FindSubmatch(res.Stdout)
	if f == nil {
		return s, fmt.Errorf("%w: sim %s printed no solved summary line", harness.ErrIncorrect, in.Spec.Name)
	}
	sum := &SimSummary{}
	sum.VSec, _ = strconv.ParseFloat(string(f[1]), 64)
	sum.Splits, _ = strconv.ParseInt(string(f[2]), 10, 64)
	sum.Props, _ = strconv.ParseInt(string(f[3]), 10, 64)
	sum.Msgs, _ = strconv.ParseInt(string(f[4]), 10, 64)
	sum.Bytes, _ = strconv.ParseInt(string(f[5]), 10, 64)
	s.Sim = sum
	return s, nil
}

// serviceJob submits one job and polls until its verdict shows. The poll
// delay grows with the job's age (a twentieth of it, between 1 and 20 ms),
// so a 40 ms job is seen within 2 ms and a 4 s job costs 60 polls.
func (r *Run) serviceJob(in workloads.Instance, parent int) (Sample, error) {
	c := r.cluster
	s := Sample{In: in}
	start := time.Now()
	job := r.Rec.Start("job", "core", in.Spec.Name, parent)
	defer r.Rec.End(job)

	sp := r.Rec.Start("http.submit", "core", in.Spec.Name, job)
	id, err := c.Submit(in.Spec.Name, in.DIMACS)
	r.Rec.End(sp)
	if err != nil {
		return s, fmt.Errorf("%w: %v", errDeadline, err)
	}
	s.SubmitMs = ms(time.Since(start))
	var j harness.Job
	for {
		age := time.Since(start)
		if age > r.deadline() {
			return s, fmt.Errorf("%w: job %s (id %d) state %q after %v; serve log:\n%s", errDeadline, in.Spec.Name, id, j.State, age, c.Serve.Tail(12))
		}
		time.Sleep(min(max(age/20, time.Millisecond), 20*time.Millisecond))
		t := time.Now()
		sp := r.Rec.Start("http.poll", "core", in.Spec.Name, job)
		j, err = c.Job(id)
		r.Rec.End(sp)
		if err != nil {
			return s, fmt.Errorf("%w: %v", errDeadline, err)
		}
		s.PollMs = append(s.PollMs, ms(time.Since(t)))
		if j.Verdict != "" {
			break
		}
	}
	if j.Verdict == "SAT" {
		sp := r.Rec.Start("http.result", "core", in.Spec.Name, job)
		j, err = c.Result(id)
		r.Rec.End(sp)
		if err != nil {
			return s, fmt.Errorf("%w: %v", errDeadline, err)
		}
	}
	sp = r.Rec.Start("verify", "bench", in.Spec.Name, job)
	err = in.Check(j.Verdict, j.Model)
	r.Rec.End(sp)
	if err != nil {
		return s, fmt.Errorf("%w: %v", harness.ErrIncorrect, err)
	}
	s.Wall = time.Since(start).Seconds()
	s.QueueWaitMs = j.QueueWaitSec * 1e3
	s.FirstAssignMs = (j.FirstAssignAt - j.SubmittedAt) * 1e3
	s.SolveMs = j.SolveSec * 1e3
	return s, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
