// Package probes times each layer of the program from outside: every
// number here is a call into a package's public functions, clocked by the
// benchmark, on the inputs the workloads generate. Nothing in the program
// is instrumented for it; phase timers inside the solver are a later
// issue.
package probes

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gridsat/benchmark/harness"
	"gridsat/internal/bench"
	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/core"
	"gridsat/internal/grid"
	"gridsat/internal/solver"
)

// Input is what a probe run works on.
type Input struct {
	// Rec and Parent place the probes' spans; Rec may be nil.
	Rec    *harness.Recorder
	Parent int
	// DIMACS are the workload's own input files, for the parser probe.
	DIMACS [][]byte
	// Random, PHP and Structured are one seq-mix instance per solver
	// regime; SAT is a satisfiable one for the verifier probe; Stream is a
	// cluster-stream instance (seconds of sequential work) for the
	// in-process distributed runs; Small is a serve-small instance for the
	// formula-shipping probe.
	Random, PHP, Structured, SAT, Stream, Small *cnf.Formula
	// ProofFile is a small pigeonhole instance as a DIMACS file, for the
	// proof probe's CLI runs.
	ProofFile string
	Bins      harness.Bins
	WorkDir   string
}

// Emit receives one per-layer metric.
type Emit func(name string, value float64, unit string)

// sliceConflicts is the client's solving quantum (core.ClientConfig's
// default SliceConflicts): the unit a busy client works in between looks
// at its control plane.
const sliceConflicts = 2000

// Run executes every probe. An error means a probe could not run at all
// (a CLI run failed, a transport would not open): the numbers are then
// incomplete and the caller fails the run.
func Run(in Input, emit Emit) error {
	p := &probe{in: in, emit: emit}
	p.solverThroughput()
	p.gridKernel()
	for _, step := range []func() error{p.cnf, p.solverHooks, p.comm, p.coreInproc, p.proof} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// wrong reports a layer that returned something it must not: the run's
// outputs are incorrect.
func wrong(format string, args ...any) error {
	return fmt.Errorf("%w: probe: %s", harness.ErrIncorrect, fmt.Sprintf(format, args...))
}

type probe struct {
	in     Input
	emit   Emit
	slices []float64 // duration of every solving quantum, ms
}

// span times fn under a span named after the call it wraps.
func (p *probe) span(name, layer string, fn func()) time.Duration {
	sp := p.in.Rec.Start(name, layer, "", p.in.Parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	p.in.Rec.End(sp)
	return d
}

// medianOf runs fn n times and returns the median duration.
func medianOf(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(harness.Median(ds))
}

func (p *probe) cnf() error {
	var total int
	var err error
	d := p.span("cnf.ParseDIMACS", "cnf", func() {
		for _, raw := range p.in.DIMACS {
			if _, perr := cnf.ParseDIMACS(bytes.NewReader(raw)); perr != nil {
				err = perr
			}
			total += len(raw)
		}
	})
	if err != nil {
		return wrong("generated DIMACS does not parse: %v", err)
	}
	p.emit("cnf.parse_mb_per_s", float64(total)/1e6/d.Seconds(), "MB/s")

	res := solver.New(p.in.SAT, solver.DefaultOptions()).Solve(solver.Limits{})
	const reps = 200
	d = p.span("cnf.Formula.Verify", "cnf", func() {
		for i := 0; i < reps; i++ {
			if verr := p.in.SAT.Verify(res.Model); verr != nil {
				err = verr
			}
		}
	})
	if err != nil {
		return wrong("the solver's model does not verify: %v", err)
	}
	p.emit("cnf.verify_ns_per_clause", float64(d.Nanoseconds())/float64(reps*p.in.SAT.NumClauses()), "ns")
	return nil
}

// solverThroughput solves one instance per regime to the end in client
// quanta and reports rates per regime, the quantum's duration, and the
// exact step counts summed over the three.
func (p *probe) solverThroughput() {
	var sum solver.Stats
	var learnts, peak int64
	for _, c := range []struct {
		class string
		f     *cnf.Formula
	}{{"random", p.in.Random}, {"php", p.in.PHP}, {"structured", p.in.Structured}} {
		s := solver.New(c.f, solver.DefaultOptions())
		d := p.span("solver.Solve."+c.class, "solver", func() {
			for {
				start := time.Now()
				res := s.Solve(solver.Limits{MaxConflicts: sliceConflicts})
				p.slices = append(p.slices, float64(time.Since(start))/1e6)
				peak = max(peak, s.MemoryBytes())
				if res.Status != solver.StatusUnknown {
					break
				}
			}
		})
		st := s.Stats()
		p.emit("solver.props_per_s."+c.class, float64(st.Propagations)/d.Seconds(), "1/s")
		p.emit("solver.conflicts_per_s."+c.class, float64(st.Conflicts)/d.Seconds(), "1/s")
		sum.Conflicts += st.Conflicts
		sum.Decisions += st.Decisions
		sum.Propagations += st.Propagations
		sum.Restarts += st.Restarts
		sum.ReclaimedBytes += st.ReclaimedBytes
		learnts += int64(s.NumLearnts())
	}
	p.emit("solver.slice_ms_p50", harness.Median(p.slices), "ms")
	p.emit("solver.conflicts", float64(sum.Conflicts), "count")
	p.emit("solver.decisions", float64(sum.Decisions), "count")
	p.emit("solver.propagations", float64(sum.Propagations), "count")
	p.emit("solver.restarts", float64(sum.Restarts), "count")
	p.emit("solver.learnts_end", float64(learnts), "count")
	p.emit("solver.arena_bytes_peak", float64(peak), "B")
	p.emit("solver.reclaimed_bytes", float64(sum.ReclaimedBytes), "B")
}

// solverHooks times what the distribution layer calls on a solver in the
// middle of a run: construction, clause import and export, split,
// checkpoint and restore.
func (p *probe) solverHooks() error {
	f, opts := p.in.Random, solver.DefaultOptions()
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	msf := func(d time.Duration) float64 { return float64(d) / 1e6 }

	p.emit("solver.new_ms", msf(medianOf(5, func() { solver.New(f, opts) })), "ms")

	donor := solver.New(f, opts)
	donor.Solve(solver.Limits{MaxConflicts: 4 * sliceConflicts})
	var exported []cnf.Clause
	d := p.span("solver.ExportLearnts", "solver", func() { exported = donor.ExportLearnts(10, 10000) })
	p.emit("solver.export_us", us(d), "us")

	// Imports are queued by ImportClauses and merged at the next level-0
	// visit, so the cost is the call plus the one-conflict Solve that
	// merges them.
	fresh := solver.New(f, opts)
	d = p.span("solver.ImportClauses", "solver", func() {
		_ = fresh.ImportClauses(exported) // clauses a solver exported are valid for its formula
		fresh.Solve(solver.Limits{MaxConflicts: 1})
	})
	p.emit("solver.import_ns_per_clause", float64(d.Nanoseconds())/float64(max(len(exported), 1)), "ns")

	cp := donor.Checkpoint(solver.HeavyCheckpoint, 0)
	var buf bytes.Buffer
	d = p.span("solver.Checkpoint+Save", "solver", func() {
		cp = donor.Checkpoint(solver.HeavyCheckpoint, 0)
		_ = cp.Save(&buf) // bytes.Buffer writes cannot fail
	})
	p.emit("solver.checkpoint_ms", msf(d), "ms")
	var err error
	d = p.span("solver.LoadCheckpoint+Restore", "solver", func() {
		var loaded *solver.Checkpoint
		if loaded, err = solver.LoadCheckpoint(&buf); err == nil {
			_, err = solver.Restore(f, loaded, opts)
		}
	})
	if err != nil {
		return wrong("a saved checkpoint does not restore: %v", err)
	}
	p.emit("solver.restore_ms", msf(d), "ms")

	// Split last: it commits the donor to one half of its search space.
	var sub *solver.Subproblem
	d = p.span("solver.Split", "solver", func() { sub, err = donor.Split(10, 10000) })
	if err != nil {
		return wrong("a mid-run solver does not split: %v", err)
	}
	p.emit("solver.split_us", us(d), "us")
	d = p.span("solver.NewFromSubproblem", "solver", func() { _, err = solver.NewFromSubproblem(f, sub, opts) })
	if err != nil {
		return wrong("a split subproblem does not load: %v", err)
	}
	p.emit("solver.from_subproblem_ms", msf(d), "ms")
	return nil
}

// comm times the wire codec on share batches captured from a real solve
// and on a shipped formula, then a control-message round trip and a
// one-way share stream over a loopback TCPTransport pair.
func (p *probe) comm() error {
	batches := bench.CaptureShareTraffic(p.in.Random, 10, 16, 4*sliceConflicts)
	var frames []*comm.EncodedMessage
	var clauses, wire int
	var err error
	d := p.span("comm.EncodeMessage(share)", "comm", func() {
		for _, b := range batches {
			e, eerr := comm.EncodeMessage(b)
			if eerr != nil {
				err = eerr
				return
			}
			frames = append(frames, e)
			clauses += len(b.Clauses)
			wire += e.WireLen()
		}
	})
	if err != nil || clauses == 0 {
		return wrong("captured share traffic (%d clauses) does not encode: %v", clauses, err)
	}
	p.emit("comm.share_encode_ns_per_clause", float64(d.Nanoseconds())/float64(clauses), "ns")
	p.emit("comm.share_bytes_per_clause", float64(wire)/float64(clauses), "B")
	d = p.span("comm.Decode(share)", "comm", func() {
		for _, e := range frames {
			if _, derr := e.Decode(); derr != nil {
				err = derr
			}
		}
	})
	if err != nil {
		return wrong("an encoded share frame does not decode: %v", err)
	}
	p.emit("comm.share_decode_ns_per_clause", float64(d.Nanoseconds())/float64(clauses), "ns")

	var base *comm.EncodedMessage
	d = medianOf(5, func() { base, _ = comm.EncodeMessage(comm.BaseProblem{Formula: p.in.Small, Job: 1}) })
	if base == nil {
		return wrong("BaseProblem does not encode")
	}
	p.emit("comm.base_encode_ms", float64(d)/1e6, "ms")
	p.emit("comm.base_bytes", float64(base.WireLen()), "B")
	d = medianOf(5, func() { _, _ = base.Decode() })
	p.emit("comm.base_decode_ms", float64(d)/1e6, "ms")

	return p.tcp(frames)
}

func (p *probe) tcp(frames []*comm.EncodedMessage) error {
	ln, err := comm.TCPTransport{}.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probe: listen: %w", err)
	}
	defer ln.Close()
	accepted := make(chan comm.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	a, err := comm.TCPTransport{}.Dial(ln.Addr())
	if err != nil {
		return fmt.Errorf("probe: dial: %w", err)
	}
	defer a.Close()
	b, ok := <-accepted
	if !ok {
		return fmt.Errorf("probe: accept failed")
	}
	defer b.Close()

	// Round trip of the smallest control message, echoed by the far side.
	const pings = 2000
	echoDone := make(chan error, 1)
	go func() {
		for i := 0; i < pings; i++ {
			m, err := b.Recv()
			if err == nil {
				err = b.Send(m)
			}
			if err != nil {
				echoDone <- err
				return
			}
		}
		echoDone <- nil
	}()
	var perr error
	d := p.span("comm.TCPTransport.pingpong", "comm", func() {
		for i := 0; i < pings && perr == nil; i++ {
			if perr = a.Send(comm.SplitRequest{ClientID: 1}); perr == nil {
				_, perr = a.Recv()
			}
		}
	})
	if err := <-echoDone; err != nil || perr != nil {
		return fmt.Errorf("probe: ping-pong: %v / %v", perr, err)
	}
	p.emit("comm.control_rtt_us", float64(d.Microseconds())/pings, "us")

	// One-way stream of the captured share frames, sent pre-encoded the
	// way the master fans a batch out.
	const rounds = 20
	want := rounds * len(frames)
	recvDone := make(chan error, 1)
	go func() {
		for i := 0; i < want; i++ {
			if _, err := b.Recv(); err != nil {
				recvDone <- err
				return
			}
		}
		recvDone <- nil
	}()
	var sent int
	d = p.span("comm.TCPTransport.stream", "comm", func() {
		for r := 0; r < rounds && perr == nil; r++ {
			for _, e := range frames {
				if perr = a.SendEncoded(e); perr != nil {
					break
				}
				sent += e.WireLen()
			}
		}
		if perr == nil {
			perr = <-recvDone
		}
	})
	if perr != nil {
		return fmt.Errorf("probe: share stream: %w", perr)
	}
	p.emit("comm.tcp_share_mb_per_s", float64(sent)/1e6/d.Seconds(), "MB/s")
	return nil
}

// coreInproc runs the live master and clients inside this process, over
// the in-process transport: against cluster-stream it isolates the wire
// and the process boundary; split (2 clients x 1 thread) against
// portfolio (1 client x 2 threads) is the paper-versus-HordeSat axis.
func (p *probe) coreInproc() error {
	for _, c := range []struct {
		name             string
		clients, threads int
	}{{"core.inproc_c2_wall_s", 2, 1}, {"core.portfolio_k2_wall_s", 1, 2}} {
		var res core.Result
		var err error
		d := p.span("core.Solve", "core", func() {
			res, err = core.Solve(p.in.Stream, core.JobConfig{Clients: c.clients, Threads: c.threads, Timeout: time.Minute})
		})
		if err != nil {
			return fmt.Errorf("probe: core.Solve: %w", err)
		}
		if res.Status != solver.StatusUNSAT {
			return wrong("core.Solve on an UNSAT instance returned %v", res.Status)
		}
		p.emit(c.name, d.Seconds(), "s")
	}
	return nil
}

// gridKernel prices the DES kernel alone: a million events, each handler
// scheduling the next.
func (p *probe) gridKernel() {
	const events = 1_000_000
	sim := grid.NewSim()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < events {
			sim.After(1, tick)
		}
	}
	sim.At(0, tick)
	d := p.span("grid.Sim.Run", "grid", func() { sim.Run(float64(events) + 1) })
	p.emit("grid.sim_events_per_s", float64(n)/d.Seconds(), "1/s")
}

// proof prices UNSAT certification through the CLI: zchaff with and
// without -proof on the pigeonhole instance, then gridsat checkproof.
func (p *probe) proof() error {
	rup := filepath.Join(p.in.WorkDir, "probe.rup")
	var plain, logged []float64
	for i := 0; i < 3; i++ {
		for _, withProof := range []bool{false, true} {
			args := []string{"-q"}
			if withProof {
				args = append(args, "-proof", rup)
			}
			var res harness.RunResult
			var err error
			p.span("proc.zchaff", "proof", func() {
				res, err = harness.Run(time.Minute, p.in.Bins.Zchaff, append(args, p.in.ProofFile)...)
			})
			if err != nil {
				return err
			}
			if !bytes.Contains(res.Stdout, []byte("s UNSATISFIABLE")) {
				return wrong("zchaff on pigeonhole printed %q", bytes.TrimSpace(res.Stdout))
			}
			if withProof {
				logged = append(logged, res.Wall.Seconds())
			} else {
				plain = append(plain, res.Wall.Seconds())
			}
		}
	}
	p.emit("proof.log_overhead_pct", 100*(harness.Median(logged)/harness.Median(plain)-1), "%")
	st, err := os.Stat(rup)
	if err != nil {
		return err
	}
	p.emit("proof.bytes", float64(st.Size()), "B")
	var res harness.RunResult
	p.span("proc.checkproof", "proof", func() {
		res, err = harness.Run(2*time.Minute, p.in.Bins.Gridsat, "checkproof", p.in.ProofFile, rup)
	})
	if err != nil {
		return wrong("checkproof rejected zchaff's proof: %v", err)
	}
	p.emit("proof.check_ms", float64(res.Wall)/1e6, "ms")
	return nil
}

// SolveSequential solves f to the end with one solver in this process, the
// reference that service turnaround and simulator cost are compared with.
func SolveSequential(f *cnf.Formula) (time.Duration, solver.Stats) {
	start := time.Now()
	s := solver.New(f, solver.DefaultOptions())
	s.Solve(solver.Limits{})
	return time.Since(start), s.Stats()
}
