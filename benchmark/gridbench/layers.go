package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"gridsat/benchmark/harness"
	"gridsat/benchmark/probes"
	"gridsat/benchmark/runner"
	"gridsat/benchmark/workloads"
)

// layerRun collects the per-layer numbers that come from the workload's
// own traced run: harness-side timings of HTTP calls, deltas of the
// counters the program already exposes (/metrics, /status, the sim summary
// line) and /proc. A number whose layer the workload does not exercise is
// reported as 0: that the comm layer moves nothing on seq-mix is the
// "bypass" half of the evidence.
type layerRun struct {
	run    *runner.Run
	start  time.Time
	before harness.Metrics
	status harness.Status
	usage  []harness.Usage // serve first, then the clients
}

func newLayerRun(run *runner.Run) *layerRun {
	l := &layerRun{run: run, start: time.Now()}
	if c := run.Cluster(); c != nil {
		l.before, _ = c.Metrics() // a failed scrape only zeroes the deltas
		l.status, _ = c.Status()
		l.usage = clusterUsage(c)
	}
	return l
}

func clusterUsage(c *harness.Cluster) []harness.Usage {
	var out []harness.Usage
	for _, p := range append([]*harness.Proc{c.Serve}, c.Clients...) {
		u, _ := harness.ProcUsage(p.PID()) // a process that is gone reads as zero
		out = append(out, u)
	}
	return out
}

// finish emits the run-sourced per-layer metrics. plain is the untraced
// half of the run, traced the half with spans and the flight recorder on.
func (l *layerRun) finish(res *result, plain, traced *runner.Measurement) {
	elapsed := time.Since(l.start).Seconds()
	wallPlain, plainJobs := endToEnd(plain)
	wallTraced, jobs := endToEnd(traced)
	p50 := harness.Median(jobs)
	jobs = append(jobs, plainJobs...)
	n := float64(max(traced.Attempted-traced.Failed, 1))

	res.add("job_p50_s", p50, "s")
	p90 := 0.0
	if harness.HighestPercentile(len(jobs)) >= 90 {
		p90 = harness.Quantile(jobs, 0.90)
	}
	res.add("job_p90_s", p90, "s")
	overhead := 100 * (wallTraced/wallPlain - 1)
	res.add("bench.trace_overhead_pct", overhead, "%")

	var first runner.Pass
	if len(traced.Passes) > 0 {
		first = traced.Passes[0]
	}
	var samples []runner.Sample
	for _, p := range traced.Passes {
		samples = append(samples, p.Samples...)
	}
	l.service(res, samples, first, n, elapsed)
	l.des(res, samples, first)

	flightPct, flightEvents := 0.0, 0.0
	switch l.run.W.Kind {
	case workloads.KindCluster:
		flightPct = overhead
		if st, err := l.run.Cluster().Status(); err == nil {
			flightEvents = float64(st.FlightEvents-l.status.FlightEvents) / n
		}
	case workloads.KindSim:
		flightPct = overhead
		if raw, err := os.ReadFile(l.run.FlightPath()); err == nil {
			flightEvents = float64(bytes.Count(raw, []byte("\n"))) // the last sim's log
		}
	}
	res.add("trace.flight_overhead_pct", flightPct, "%")
	res.add("trace.flight_events_per_job", flightEvents, "count")
}

// service emits the comm/core/obs/proc numbers of a live cluster.
func (l *layerRun) service(res *result, samples []runner.Sample, first runner.Pass, n, elapsed float64) {
	var submit, poll, queue, assign, solve []float64
	cpu, rssMaster, rssClient := 0.0, 0.0, 0.0
	for _, s := range samples {
		submit = append(submit, s.SubmitMs)
		poll = append(poll, s.PollMs...)
		queue = append(queue, s.QueueWaitMs)
		assign = append(assign, s.FirstAssignMs)
		solve = append(solve, s.SolveMs)
		cpu += s.CPUSeconds
		rssClient = max(rssClient, s.PeakRSSMB)
	}
	var d harness.Metrics
	var st harness.Status
	scrape, masterCPU, clientCPU := 0.0, 0.0, 0.0
	c := l.run.Cluster()
	if c != nil {
		after, _ := c.Metrics() // as in newLayerRun
		d = harness.Delta(l.before, after)
		now, _ := c.Status()
		st = harness.Status{Splits: now.Splits - l.status.Splits, Shared: now.Shared - l.status.Shared,
			SharedDropped: now.SharedDropped - l.status.SharedDropped}
		var scrapes []float64
		for i := 0; i < 5; i++ {
			t := time.Now()
			_, _ = c.Metrics()
			scrapes = append(scrapes, float64(time.Since(t))/1e6)
		}
		scrape = harness.Median(scrapes)
		usage := clusterUsage(c)
		masterCPU = usage[0].CPUSeconds - l.usage[0].CPUSeconds
		rssMaster = usage[0].PeakRSSMB
		for i := 1; i < len(usage); i++ {
			clientCPU += usage[i].CPUSeconds - l.usage[i].CPUSeconds
			rssClient = max(rssClient, usage[i].PeakRSSMB)
		}
		cpu = masterCPU + clientCPU
	}
	res.add("comm.msgs_per_job", d.Sum("gridsat_comm_msgs_total")/n, "count")
	res.add("comm.bytes_per_job", d.Sum("gridsat_comm_bytes_total")/n, "B")
	res.add("comm.fallback_frames_per_job", d.Sum("gridsat_comm_codec_fallback_frames_total")/n, "count")
	res.add("core.submit_ms_p50", harness.Median(submit), "ms")
	res.add("core.poll_ms_p50", harness.Median(poll), "ms")
	res.add("core.poll_ms_p99", harness.Quantile(poll, 0.99), "ms")
	res.add("core.queue_wait_ms_p50", harness.Median(queue), "ms")
	res.add("core.first_assign_ms_p50", harness.Median(assign), "ms")
	res.add("core.solve_ms_p50", harness.Median(solve), "ms")

	// Turnaround against the same instance solved in this process, one
	// solver, no cluster: what the service adds (serve-small) or saves
	// (cluster-stream) per job. Priced on the first traced pass only.
	var over []float64
	seqSum, turnSum := 0.0, 0.0
	if c != nil {
		for _, s := range first.Samples {
			seq, _ := probes.SolveSequential(s.In.Formula)
			over = append(over, (s.Wall-seq.Seconds())*1e3)
			seqSum += seq.Seconds()
			turnSum += s.Wall
		}
	}
	speedup := 0.0
	if turnSum > 0 {
		speedup = seqSum / turnSum
	}
	res.add("core.overhead_ms_p50", harness.Median(over), "ms")
	res.add("core.speedup_vs_seq", speedup, "ratio")
	res.add("core.splits_per_job", float64(st.Splits)/n, "count")
	res.add("core.shared_clauses_per_job", float64(st.Shared)/n, "count")
	res.add("core.share_dropped", float64(st.SharedDropped), "count")
	useful := 0.0
	if imp := d.Sum("gridsat_client_imported_total"); imp > 0 {
		useful = d.Sum("gridsat_client_imported_useful_total") / imp
	}
	res.add("core.import_useful_ratio", useful, "ratio")
	res.add("core.heartbeats", d.Sum("gridsat_master_heartbeats_total"), "count")
	res.add("core.master_cpu_frac", masterCPU/elapsed, "ratio")
	res.add("core.client_cpu_frac", clientCPU/harness.ClusterSize/elapsed, "ratio")
	res.add("obs.metrics_scrape_ms", scrape, "ms")
	res.add("proc.peak_rss_mb.master", rssMaster, "MB")
	res.add("proc.peak_rss_mb.client", rssClient, "MB")
	res.add("proc.cpu_s", cpu, "s")
}

// des emits the simulator numbers from the `gridsat sim` summary lines.
func (l *layerRun) des(res *result, samples []runner.Sample, first runner.Pass) {
	var wall, props, vsec float64
	for _, s := range samples {
		if s.Sim != nil {
			wall += s.Wall
			props += float64(s.Sim.Props)
			vsec += s.Sim.VSec
		}
	}
	var sum runner.SimSummary
	ratio := 0.0
	if l.run.W.Kind == workloads.KindSim {
		var seqWall, seqProps float64
		for _, s := range first.Samples {
			sum.VSec += s.Sim.VSec
			sum.Splits += s.Sim.Splits
			sum.Msgs += s.Sim.Msgs
			sum.Bytes += s.Sim.Bytes
			d, st := probes.SolveSequential(s.In.Formula)
			seqWall += d.Seconds()
			seqProps += float64(st.Propagations)
		}
		ratio = (wall / props) / (seqWall / seqProps)
	}
	perWall := func(x float64) float64 {
		if wall == 0 {
			return 0
		}
		return x / wall
	}
	res.add("core.des_props_per_wall_s", perWall(props), "1/s")
	res.add("core.des_vsec_per_wall_s", perWall(vsec), "1/s")
	res.add("core.des_overhead_ratio", ratio, "ratio")
	res.add("core.des_vsec", sum.VSec, "s")
	res.add("core.des_splits", float64(sum.Splits), "count")
	res.add("core.des_msgs", float64(sum.Msgs), "count")
	res.add("core.des_bytes", float64(sum.Bytes), "B")
}

// runProbes feeds the layer probes: the workload's own files for the
// parser, and the instances the workload files mark with a probe role.
func runProbes(res *result, run *runner.Run) error {
	in := probes.Input{Rec: run.Rec, Bins: run.Bins(), WorkDir: filepath.Join(run.Root, harness.BuildDir, "work")}
	in.Parent = run.Rec.Start("probes", "bench", "", 0)
	defer run.Rec.End(in.Parent)
	for _, inst := range run.Passes()[0] {
		in.DIMACS = append(in.DIMACS, inst.DIMACS)
	}
	roles, err := workloads.ProbeInstances(run.Seed)
	if err != nil {
		return err
	}
	in.Random, in.PHP, in.Structured = roles["random"].Formula, roles["php"].Formula, roles["structured"].Formula
	in.SAT, in.Stream, in.Small = roles["sat"].Formula, roles["stream"].Formula, roles["small"].Formula
	in.ProofFile = filepath.Join(in.WorkDir, "probe-proof.cnf")
	if err := os.WriteFile(in.ProofFile, roles["proof"].DIMACS, 0o644); err != nil {
		return err
	}
	return probes.Run(in, res.add)
}
