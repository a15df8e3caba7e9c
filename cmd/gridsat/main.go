// Command gridsat is the GridSAT distributed SAT solver.
//
// Modes:
//
//	gridsat solve  problem.cnf            sequential solve (zChaff role)
//	gridsat run    problem.cnf            master + N clients in one process
//	gridsat master -listen :7070 p.cnf    TCP master for a real deployment
//	gridsat serve  -listen :7070          long-lived multi-job scheduling
//	                                      service (submit/cancel over HTTP)
//	gridsat client -master host:7070      TCP client joining a deployment
//	gridsat sim    problem.cnf            deterministic simulated-grid run
//	gridsat top    -addr host:8080        live dashboard of a master's /status
//	gridsat checkproof p.cnf proof.rup    check a RUP refutation (zVerify role)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"gridsat/internal/bench"
	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/core"
	"gridsat/internal/grid"
	"gridsat/internal/obs"
	"gridsat/internal/proof"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "master":
		err = cmdMaster(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "client":
		err = cmdClient(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "checkproof":
		err = cmdCheckProof(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridsat:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gridsat <solve|run|master|serve|client|sim|top|checkproof> [flags] [problem.cnf]
run "gridsat <mode> -h" for mode flags`)
}

func loadCNF(path string) (*cnf.Formula, error) {
	if path == "" || path == "-" {
		return cnf.ParseDIMACS(os.Stdin)
	}
	return cnf.ParseDIMACSFile(path)
}

func report(status solver.Status, model cnf.Assignment, f *cnf.Formula) {
	switch status {
	case solver.StatusSAT:
		fmt.Println("s SATISFIABLE")
		if err := f.Verify(model); err != nil {
			fmt.Fprintln(os.Stderr, "gridsat: model verification FAILED:", err)
			os.Exit(1)
		}
		fmt.Print("v")
		for v := 0; v < len(model); v++ {
			lit := v + 1
			if model[v] == cnf.False {
				lit = -lit
			}
			fmt.Printf(" %d", lit)
		}
		fmt.Println(" 0")
	case solver.StatusUNSAT:
		fmt.Println("s UNSATISFIABLE")
	default:
		fmt.Println("s UNKNOWN")
	}
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	timeout := fs.Duration("timeout", 0, "wall-clock budget")
	mem := fs.Int64("mem", 0, "memory budget in bytes")
	ckptIn := fs.String("resume", "", "resume from a checkpoint file")
	ckptOut := fs.String("checkpoint", "", "write a heavy checkpoint here when the budget runs out")
	fs.Parse(args)
	f, err := loadCNF(fs.Arg(0))
	if err != nil {
		return err
	}
	var s *solver.Solver
	if *ckptIn != "" {
		fd, err := os.Open(*ckptIn)
		if err != nil {
			return err
		}
		cp, err := solver.LoadCheckpoint(fd)
		fd.Close()
		if err != nil {
			return err
		}
		if s, err = solver.Restore(f, cp, solver.DefaultOptions()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gridsat: resumed from %s (%d level-0 facts, %d learned clauses)\n",
			*ckptIn, len(cp.Level0), len(cp.Learnts))
	} else {
		s = solver.New(f, solver.DefaultOptions())
	}
	res := s.Solve(solver.Limits{MaxTime: *timeout, MaxMemoryBytes: *mem})
	if res.Status == solver.StatusUnknown && *ckptOut != "" {
		// Paper §3.4: the heavy checkpoint records level 0 plus the learned
		// clauses; the initial clauses come from the problem file on resume.
		cp := s.Checkpoint(solver.HeavyCheckpoint, 0)
		fd, err := os.Create(*ckptOut)
		if err != nil {
			return err
		}
		if err := cp.Save(fd); err != nil {
			fd.Close()
			return err
		}
		if err := fd.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gridsat: checkpoint written to %s\n", *ckptOut)
	}
	report(res.Status, res.Model, f)
	return nil
}

// outputs are the flags the solving modes share: the structured log level
// and where the report and the flight log with its two views are written.
type outputs struct {
	log, report, trace, perfetto, dot string
}

// traceFlags registers -trace and -trace-perfetto, and -trace-dot when dot.
func (o *outputs) traceFlags(fs *flag.FlagSet, dot bool) {
	fs.StringVar(&o.trace, "trace", "", "record the control-plane flight log as JSONL here")
	fs.StringVar(&o.perfetto, "trace-perfetto", "", "also render the flight log as a Perfetto trace here")
	if dot {
		fs.StringVar(&o.dot, "trace-dot", "", "also render the split-lineage tree as Graphviz DOT here")
	}
}

// reportFlags registers -report and -log (off by default), which run and
// master share.
func (o *outputs) reportFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.report, "report", "", "write a machine-readable JSON run report here")
	fs.StringVar(&o.log, "log", "", "structured log level (debug|info|warn|error; empty = off)")
}

// validate rejects a -split-strategy or -log value that names nothing (""
// is each one's default).
func validate(strategy, level string) error {
	if _, err := solver.ParseStrategy(strategy); err != nil {
		return err
	}
	if level != "" {
		_, err := parseLevel(level)
		return err
	}
	return nil
}

// parseLevel reads a -log value with slog's level names (case-insensitive);
// anything else is an error naming the accepted levels.
func parseLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("%w (want debug, info, warn or error)", err)
	}
	return lvl, nil
}

// runCmd is `gridsat run` parsed: the in-process job and its outputs.
type runCmd struct {
	job      core.JobConfig
	out      outputs
	instance string
}

func runFlags(c *runCmd) *flag.FlagSet {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	fs.IntVar(&c.job.Clients, "clients", 4, "number of in-process clients")
	fs.IntVar(&c.job.Client.Threads, "threads", runtime.NumCPU(), "portfolio workers per client (1 = classic single-solver clients)")
	fs.IntVar(&c.job.Client.ShareMaxLen, "share-len", 10, "maximum shared clause length")
	fs.StringVar(&c.job.Client.SplitStrategy, "split-strategy", "", "split engine: "+solver.StrategyNames)
	fs.DurationVar(&c.job.Master.Timeout, "timeout", 10*time.Minute, "overall budget")
	fs.StringVar(&c.job.Master.MetricsAddr, "metrics-addr", "", "serve /metrics, /status, /jobs and pprof here during the run")
	c.out.reportFlags(fs)
	c.out.traceFlags(fs, true)
	return fs
}

func parseRun(args []string) (runCmd, error) {
	var c runCmd
	fs := runFlags(&c)
	fs.Parse(args)
	c.instance = fs.Arg(0)
	return c, validate(c.job.Client.SplitStrategy, c.out.log)
}

func cmdRun(args []string) error {
	c, err := parseRun(args)
	if err != nil {
		return err
	}
	f, err := loadCNF(c.instance)
	if err != nil {
		return err
	}
	if c.job.Master.Logger, err = runLogger(c.out.log); err != nil {
		return err
	}
	fl, closeFlight, err := flightRecorder(c.out.trace)
	if err != nil {
		return err
	}
	c.job.Master.Flight = fl
	res, err := core.Solve(f, c.job)
	if err != nil {
		return err
	}
	if err := closeFlight(); err != nil {
		return err
	}
	if err := writeTraceViews(fl, c.out.perfetto, c.out.dot); err != nil {
		return err
	}
	report(res.Status, res.Model, f)
	fmt.Printf("c wall=%.3fs max-clients=%d threads=%d splits=%d shared-clauses=%d msgs=%d bytes=%d\n",
		res.Wall.Seconds(), res.MaxClients, res.Threads, res.State.Splits, res.State.Shared,
		res.Comm.MsgsSent, res.Comm.BytesSent)
	return writeReport(c.out.report, c.instance, res, fl)
}

// runLogger builds the stderr structured logger for -log; "" disables.
func runLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	lvl, err := parseLevel(level)
	if err != nil {
		return nil, err
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// flightRecorder opens the -trace flight recorder streaming JSONL to path;
// "" disables tracing. The returned closer flushes and closes the sink.
func flightRecorder(path string) (*trace.Flight, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	fd, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	fl := trace.NewFlight(fd)
	closer := func() error {
		if err := fl.Flush(); err != nil {
			fd.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "gridsat: flight log (%d events) written to %s\n", fl.Len(), path)
		return fd.Close()
	}
	return fl, closer, nil
}

// writeTraceViews renders the two derived views of a flight log: a
// Perfetto/chrome-tracing timeline and a split-lineage DOT graph.
func writeTraceViews(fl *trace.Flight, perfettoPath, dotPath string) error {
	if fl == nil {
		return nil
	}
	if perfettoPath != "" {
		fd, err := os.Create(perfettoPath)
		if err != nil {
			return err
		}
		if err := trace.WritePerfetto(fd, fl.Events()); err != nil {
			fd.Close()
			return err
		}
		if err := fd.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gridsat: perfetto trace written to %s (open in ui.perfetto.dev)\n", perfettoPath)
	}
	if dotPath != "" {
		fd, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		tree := trace.BuildLineage(fl.Events())
		if err := tree.WriteDOT(fd); err != nil {
			fd.Close()
			return err
		}
		if err := fd.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gridsat: lineage tree (%d leaves) written to %s\n", len(tree.Leaves()), dotPath)
	}
	return nil
}

// writeReport writes the -report JSON file; "" is a no-op. The run's
// final ClusterState is its body, under "state", its job rows without their
// models (the `v` lines carry job 0's) so the report stays a fixed-size
// summary; a non-nil flight recorder contributes its per-kind event summary.
func writeReport(path, instance string, res core.Result, fl *trace.Flight) error {
	if path == "" {
		return nil
	}
	if instance == "" {
		instance = "-"
	}
	res.State.Jobs = slices.Clone(res.State.Jobs)
	for i := range res.State.Jobs {
		res.State.Jobs[i].Model = nil
	}
	rep := struct {
		Instance string `json:"instance"`
		core.Result
		WallSeconds float64              `json:"wall_seconds"`
		Flight      *trace.FlightSummary `json:"flight,omitempty"`
	}{Instance: instance, Result: res, WallSeconds: res.Wall.Seconds()}
	if fl != nil {
		s := trace.Summarize(fl.Events())
		rep.Flight = &s
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gridsat: report written to %s\n", path)
	return nil
}

// masterCmd is `gridsat master` parsed: a TCP master and its outputs.
type masterCmd struct {
	cfg      core.MasterConfig
	out      outputs
	instance string
}

func masterFlags(c *masterCmd) *flag.FlagSet {
	fs := flag.NewFlagSet("master", flag.ExitOnError)
	fs.StringVar(&c.cfg.ListenAddr, "listen", ":7070", "TCP listen address")
	fs.Int64Var(&c.cfg.MinMemBytes, "min-mem", 128<<20, "minimum client free memory (bytes)")
	fs.DurationVar(&c.cfg.Timeout, "timeout", 0, "overall budget (0 = none)")
	fs.IntVar(&c.cfg.ExpectedClients, "expect-clients", 0, "wait for this many registrations before starting")
	fs.StringVar(&c.cfg.MetricsAddr, "metrics-addr", "", "serve /metrics, /status, /jobs and pprof here during the run")
	c.out.reportFlags(fs)
	c.out.traceFlags(fs, true)
	return fs
}

func parseMaster(args []string) (masterCmd, error) {
	var c masterCmd
	fs := masterFlags(&c)
	fs.Parse(args)
	c.instance = fs.Arg(0)
	return c, validate("", c.out.log)
}

func cmdMaster(args []string) error {
	c, err := parseMaster(args)
	if err != nil {
		return err
	}
	if c.cfg.Formula, err = loadCNF(c.instance); err != nil {
		return err
	}
	if c.cfg.Logger, err = runLogger(c.out.log); err != nil {
		return err
	}
	fl, closeFlight, err := flightRecorder(c.out.trace)
	if err != nil {
		return err
	}
	c.cfg.Flight = fl
	c.cfg.Metrics = obs.NewRegistry()
	cm := comm.NewMetrics(c.cfg.Metrics)
	c.cfg.Transport = comm.Instrument(comm.TCPTransport{}, cm)
	m, err := core.NewMaster(c.cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "gridsat master listening on", m.Addr())
	if a := m.MetricsAddr(); a != "" {
		fmt.Fprintln(os.Stderr, "gridsat metrics on http://"+a+"/metrics")
	}
	res, err := m.Run()
	if err != nil {
		return err
	}
	res.Comm = cm.Totals()
	if err := closeFlight(); err != nil {
		return err
	}
	if err := writeTraceViews(fl, c.out.perfetto, c.out.dot); err != nil {
		return err
	}
	report(res.Status, res.Model, c.cfg.Formula)
	fmt.Printf("c wall=%.3fs max-clients=%d splits=%d shared-clauses=%d msgs=%d bytes=%d\n",
		res.Wall.Seconds(), res.MaxClients, res.State.Splits, res.State.Shared,
		res.Comm.MsgsSent, res.Comm.BytesSent)
	return writeReport(c.out.report, c.instance, res, fl)
}

// serveCmd is `gridsat serve` parsed: a master with no job of its own and
// its outputs.
type serveCmd struct {
	cfg core.MasterConfig
	out outputs
}

func serveFlags(c *serveCmd) *flag.FlagSet {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&c.cfg.ListenAddr, "listen", ":7070", "TCP listen address for solver clients")
	fs.StringVar(&c.cfg.MetricsAddr, "api-addr", ":8080", "HTTP address for the /jobs API (also serves /metrics, /status, /history)")
	fs.IntVar(&c.cfg.Admission.MaxActive, "max-jobs", 0, "admission cap on active jobs (0 = derive from client count)")
	fs.Int64Var(&c.cfg.Admission.MemBudgetBytes, "mem-budget", 0, "admission cap on summed active formula bytes (0 = unbounded)")
	fs.Int64Var(&c.cfg.MinMemBytes, "min-mem", 128<<20, "minimum client free memory (bytes)")
	fs.DurationVar(&c.cfg.Timeout, "timeout", 0, "shut the service down after this long (0 = run until interrupted)")
	fs.StringVar(&c.out.log, "log", "info", "structured log level (debug|info|warn|error; empty = off)")
	c.out.traceFlags(fs, false)
	fs.StringVar(&c.cfg.BundleDir, "bundle-dir", "", "write postmortem black-box bundles here on job failure/cancel, watchdog alerts, and POST /debug/bundle (empty = off)")
	return fs
}

func parseServe(args []string) (serveCmd, error) {
	var c serveCmd
	serveFlags(&c).Parse(args)
	if c.cfg.MetricsAddr == "" {
		return c, fmt.Errorf("serve needs -api-addr: the /jobs API rides the introspection server")
	}
	return c, validate("", c.out.log)
}

// cmdServe boots the long-lived multi-job scheduling service: a master
// with no job of its own, whose /jobs HTTP API (submit, status, cancel, result) rides the
// introspection server. Ctrl-C shuts the pool down cleanly.
func cmdServe(args []string) error {
	c, err := parseServe(args)
	if err != nil {
		return err
	}
	if c.cfg.Logger, err = runLogger(c.out.log); err != nil {
		return err
	}
	fl, closeFlight, err := flightRecorder(c.out.trace)
	if err != nil {
		return err
	}
	c.cfg.Flight = fl
	c.cfg.Metrics = obs.NewRegistry()
	c.cfg.Transport = comm.Instrument(comm.TCPTransport{}, comm.NewMetrics(c.cfg.Metrics))
	m, err := core.NewMaster(c.cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "gridsat serve: clients on", m.Addr())
	fmt.Fprintln(os.Stderr, "gridsat serve: job API on http://"+m.MetricsAddr()+"/jobs")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "gridsat serve: shutting down")
		m.Shutdown()
	}()

	_, err = m.Run()
	signal.Stop(sig)
	if err != nil {
		return err
	}
	if err := closeFlight(); err != nil {
		return err
	}
	return writeTraceViews(fl, c.out.perfetto, "")
}

func clientFlags(cfg *core.ClientConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	fs.StringVar(&cfg.MasterAddr, "master", "localhost:7070", "master address")
	fs.StringVar(&cfg.ListenAddr, "listen", ":0", "P2P listen address")
	fs.Int64Var(&cfg.FreeMemBytes, "mem", 512<<20, "free memory to report and budget from")
	fs.Float64Var(&cfg.SpeedHint, "speed", 1.0, "relative CPU speed hint")
	fs.IntVar(&cfg.Threads, "threads", runtime.NumCPU(), "portfolio workers on this host (1 = classic single-solver client)")
	fs.IntVar(&cfg.ShareMaxLen, "share-len", 10, "maximum shared clause length")
	fs.StringVar(&cfg.SplitStrategy, "split-strategy", "", "split engine: "+solver.StrategyNames)
	return fs
}

// parseClient parses `gridsat client` into the TCP client it runs.
func parseClient(args []string) (core.ClientConfig, error) {
	var cfg core.ClientConfig
	clientFlags(&cfg).Parse(args)
	return cfg, validate(cfg.SplitStrategy, "")
}

func cmdClient(args []string) error {
	cfg, err := parseClient(args)
	if err != nil {
		return err
	}
	cfg.Transport = comm.TCPTransport{}
	cfg.HostName, _ = os.Hostname()
	cl, err := core.NewClient(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gridsat client %d registered (p2p %s)\n", cl.ID(), cl.Addr())
	return cl.Run()
}

// cmdCheckProof independently certifies an UNSAT answer from a RUP proof
// (the zVerify role): gridsat checkproof problem.cnf proof.rup
func cmdCheckProof(args []string) error {
	fs := flag.NewFlagSet("checkproof", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: gridsat checkproof problem.cnf proof.rup")
	}
	f, err := loadCNF(fs.Arg(0))
	if err != nil {
		return err
	}
	fd, err := os.Open(fs.Arg(1))
	if err != nil {
		return err
	}
	defer fd.Close()
	lemmas, err := proof.Parse(fd)
	if err != nil {
		return err
	}
	if err := proof.Check(f, lemmas); err != nil {
		return fmt.Errorf("proof REJECTED: %w", err)
	}
	fmt.Printf("proof OK: %d lemmas certify UNSATISFIABLE\n", len(lemmas))
	return nil
}

// cmdTop is the live cluster dashboard: it polls a running master's
// /status endpoint (served on -metrics-addr) and repaints a fixed-width
// terminal frame until the run reaches a verdict.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "master introspection address (its -metrics-addr)")
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	once := fs.Bool("once", false, "print a single frame and exit")
	width := fs.Int("width", core.TopWidth, "frame width in columns")
	fs.Parse(args)
	base := "http://" + strings.TrimPrefix(*addr, "http://")
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		var st core.ClusterState
		if err := fetchJSON(client, base+"/status", &st); err != nil {
			return fmt.Errorf("fetch %s/status: %w", base, err)
		}
		// /history is best-effort: without it the frame has no sparklines.
		var h struct {
			Samples []core.Sample `json:"samples"`
		}
		if fetchJSON(client, base+"/history", &h) != nil {
			h.Samples = nil
		}
		frame := core.RenderTop(st, h.Samples, *width)
		if *once {
			fmt.Print(frame)
			return nil
		}
		// Home the cursor and clear below: the fixed-width frame overwrites
		// the previous one without flicker.
		fmt.Print("\x1b[H\x1b[2J" + frame)
		if st.Verdict != "" {
			return nil
		}
		time.Sleep(*interval)
	}
}

// fetchJSON GETs url and decodes the JSON body into out.
func fetchJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// simCmd is `gridsat sim` parsed: the run's configuration less the parts
// config builds fresh for every run, and what the command does around it.
type simCmd struct {
	cfg                       core.RunnerConfig
	testbed, timeline         string
	sequential, batch, replay bool
	out                       outputs
	instance                  string
}

func simFlags(c *simCmd) *flag.FlagSet {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	fs.StringVar(&c.testbed, "testbed", "grads", "grads (34 hosts) or table2 (27 hosts)")
	fs.Float64Var(&c.cfg.TimeoutVSec, "timeout-vsec", 6000, "virtual-second budget")
	fs.IntVar(&c.cfg.Client.Threads, "threads", runtime.NumCPU(), "simulated portfolio workers per simulated client (1 = classic single-solver clients; pin for cross-machine reproducibility). Not the simulator's own parallelism: it computes its clients on every core GOMAXPROCS allows, by itself, with the same result")
	fs.IntVar(&c.cfg.Client.ShareMaxLen, "share-len", 10, "maximum shared clause length")
	fs.StringVar(&c.cfg.Client.SplitStrategy, "split-strategy", "", "split engine: "+solver.StrategyNames)
	fs.Int64Var(&c.cfg.Seed, "seed", 1, "contention/jitter seed")
	fs.BoolVar(&c.sequential, "sequential", false, "run the dedicated sequential baseline instead")
	fs.BoolVar(&c.batch, "batch", false, "submit a Blue Horizon batch job (table2 testbed)")
	fs.StringVar(&c.timeline, "timeline", "", "write the active-clients-over-time curve as CSV")
	c.out.traceFlags(fs, true)
	fs.BoolVar(&c.replay, "replay", false, "re-run the simulation and verify it reproduces the flight log exactly")
	fs.BoolVar(&c.cfg.Watchdog, "watchdog", false, "run the anomaly watchdog over the simulated cluster (virtual-time thresholds)")
	fs.StringVar(&c.cfg.Master.BundleDir, "bundle-dir", "", "write deterministic postmortem bundles here on anomalies and job failure/cancel (implies -watchdog)")
	return fs
}

func parseSim(args []string) (simCmd, error) {
	var c simCmd
	fs := simFlags(&c)
	fs.Parse(args)
	c.instance = fs.Arg(0)
	// The DES degrades unknown strategies to first-decision; reject them
	// loudly at the flag boundary instead.
	return c, validate(c.cfg.Client.SplitStrategy, "")
}

// config builds one run's configuration. The grid is mutated during a run,
// so replay verification needs a fresh, identically-seeded one per run.
func (c *simCmd) config(f *cnf.Formula, fl *trace.Flight) (core.RunnerConfig, error) {
	cfg := c.cfg
	switch c.testbed {
	case "grads":
		cfg.Grid = grid.TestbedGrADS(cfg.Seed)
	case "table2":
		cfg.Grid = grid.TestbedTable2(cfg.Seed)
	default:
		return cfg, fmt.Errorf("unknown testbed %q", c.testbed)
	}
	cfg.Master.Formula, cfg.Master.Flight = f, fl
	cfg.Watchdog = cfg.Watchdog || cfg.Master.BundleDir != ""
	if c.batch {
		cfg.Grid.AddBlueHorizon(bench.Table2BatchNodes)
		cfg.Batch = bench.Table2Batch(bench.Table2WalltimeVSec, 1)
	}
	return cfg, nil
}

// simSummary is sim's `c outcome=...` line: what the run cost in virtual
// time, splits, shared clauses, propagations and modeled traffic.
func simSummary(res core.SimResult) string {
	return fmt.Sprintf("c outcome=%s vsec=%.1f max-clients=%d threads=%d splits=%d shared=%d work=%d-props msgs=%d bytes=%d",
		res.Outcome, res.VSec, res.MaxClients, res.Threads, res.State.Splits, res.State.Shared, res.TotalProps,
		res.Comm.MsgsSent, res.Comm.BytesSent)
}

func cmdSim(args []string) error {
	c, err := parseSim(args)
	if err != nil {
		return err
	}
	f, err := loadCNF(c.instance)
	if err != nil {
		return err
	}
	if c.sequential && (c.out.trace != "" || c.replay) {
		return fmt.Errorf("-trace/-replay need the distributed runner (drop -sequential)")
	}
	fl, closeFlight, err := flightRecorder(c.out.trace)
	if err != nil {
		return err
	}
	// -replay needs the events in memory even without a -trace file.
	if c.replay && fl == nil {
		fl = trace.NewFlight(nil)
	}
	cfg, err := c.config(f, fl)
	if err != nil {
		return err
	}
	var res core.SimResult
	if c.sequential {
		res = core.RunSequential(cfg)
	} else {
		res = core.RunDistributed(cfg)
	}
	if err := closeFlight(); err != nil {
		return err
	}
	if err := writeTraceViews(fl, c.out.perfetto, c.out.dot); err != nil {
		return err
	}
	if c.replay {
		err := trace.ReplayVerify(fl.Events(), func(f2 *trace.Flight) error {
			cfg2, err := c.config(f, f2)
			if err != nil {
				return err
			}
			core.RunDistributed(cfg2)
			return nil
		})
		if err != nil {
			return fmt.Errorf("replay verification FAILED: %w", err)
		}
		fmt.Fprintf(os.Stderr, "gridsat: replay verified — re-run reproduced all %d flight events\n", fl.Len())
	}
	report(res.Status, res.Model, f)
	fmt.Println(simSummary(res))
	for _, a := range res.Alerts {
		fmt.Printf("c alert rule=%s subject=%q vsec=%.1f detail=%q\n", a.Rule, a.Subject, a.TSec, a.Detail)
	}
	for _, b := range res.Bundles {
		fmt.Fprintln(os.Stderr, "gridsat: postmortem bundle written to", b)
	}
	if c.timeline != "" && !c.sequential {
		fd, err := os.Create(c.timeline)
		if err != nil {
			return err
		}
		defer fd.Close()
		fmt.Fprintln(fd, "vsec,busy_clients")
		for _, p := range res.Timeline {
			fmt.Fprintf(fd, "%.3f,%d\n", p.VSec, p.Busy)
		}
		fmt.Fprintf(os.Stderr, "gridsat: timeline (%d samples) written to %s\n", len(res.Timeline), c.timeline)
	}
	return nil
}
