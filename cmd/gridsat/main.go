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
//	gridsat top    -addr host:8080        live cluster dashboard (polls a
//	                                      master's -metrics-addr endpoint)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/core"
	"gridsat/internal/grid"
	"gridsat/internal/obs"
	"gridsat/internal/obs/history"
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

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	clients := fs.Int("clients", 4, "number of in-process clients")
	threads := fs.Int("threads", runtime.NumCPU(), "portfolio workers per client (1 = classic single-solver clients)")
	shareLen := fs.Int("share-len", 10, "maximum shared clause length")
	splitStrategy := fs.String("split-strategy", "", "split engine: "+solver.StrategyNames)
	timeout := fs.Duration("timeout", 10*time.Minute, "overall budget")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /status and pprof here during the run")
	reportPath := fs.String("report", "", "write a machine-readable JSON run report here")
	logLevel := fs.String("log", "", "structured log level (debug|info|warn|error; empty = off)")
	tracePath := fs.String("trace", "", "record the control-plane flight log as JSONL here")
	perfettoPath := fs.String("trace-perfetto", "", "also render the flight log as a Perfetto trace here")
	dotPath := fs.String("trace-dot", "", "also render the split-lineage tree as Graphviz DOT here")
	fs.Parse(args)
	f, err := loadCNF(fs.Arg(0))
	if err != nil {
		return err
	}
	logger, err := runLogger(*logLevel)
	if err != nil {
		return err
	}
	fl, closeFlight, err := flightRecorder(*tracePath)
	if err != nil {
		return err
	}
	res, err := core.Solve(f, core.JobConfig{
		Clients:       *clients,
		Threads:       *threads,
		ShareMaxLen:   *shareLen,
		SplitStrategy: *splitStrategy,
		Timeout:       *timeout,
		MetricsAddr:   *metricsAddr,
		Logger:        logger,
		Flight:        fl,
	})
	if err != nil {
		return err
	}
	if err := closeFlight(); err != nil {
		return err
	}
	if err := writeTraceViews(fl, *perfettoPath, *dotPath); err != nil {
		return err
	}
	report(res.Status, res.Model, f)
	fmt.Printf("c wall=%.3fs max-clients=%d threads=%d splits=%d shared-clauses=%d msgs=%d bytes=%d\n",
		res.Wall.Seconds(), res.MaxClients, res.Threads, res.Splits, res.SharedClauses,
		res.Comm.MsgsSent, res.Comm.BytesSent)
	return writeReport(*reportPath, fs.Arg(0), res, fl)
}

// runLogger builds the stderr structured logger for -log; "" disables.
func runLogger(level string) (*obs.Logger, error) {
	if level == "" {
		return nil, nil
	}
	return obs.NewLogger(os.Stderr, obs.ParseLevel(level)), nil
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

// writeReport writes the -report JSON file; "" is a no-op. A non-nil
// flight recorder contributes its per-kind event summary.
func writeReport(path, instance string, res core.Result, fl *trace.Flight) error {
	if path == "" {
		return nil
	}
	if instance == "" {
		instance = "-"
	}
	rep := core.BuildReport(instance, res)
	if fl != nil {
		s := trace.Summarize(fl.Events())
		rep.Flight = &s
	}
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gridsat: report written to %s\n", path)
	return nil
}

func cmdMaster(args []string) error {
	fs := flag.NewFlagSet("master", flag.ExitOnError)
	listen := fs.String("listen", ":7070", "TCP listen address")
	minMem := fs.Int64("min-mem", 128<<20, "minimum client free memory (bytes)")
	timeout := fs.Duration("timeout", 0, "overall budget (0 = none)")
	expected := fs.Int("expect-clients", 0, "wait for this many registrations before starting")
	splitStrategy := fs.String("split-strategy", "", "split engine: "+solver.StrategyNames)
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /status and pprof here during the run")
	reportPath := fs.String("report", "", "write a machine-readable JSON run report here")
	logLevel := fs.String("log", "", "structured log level (debug|info|warn|error; empty = off)")
	tracePath := fs.String("trace", "", "record the control-plane flight log as JSONL here")
	perfettoPath := fs.String("trace-perfetto", "", "also render the flight log as a Perfetto trace here")
	dotPath := fs.String("trace-dot", "", "also render the split-lineage tree as Graphviz DOT here")
	fs.Parse(args)
	f, err := loadCNF(fs.Arg(0))
	if err != nil {
		return err
	}
	logger, err := runLogger(*logLevel)
	if err != nil {
		return err
	}
	fl, closeFlight, err := flightRecorder(*tracePath)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	cm := comm.NewMetrics(reg)
	m, err := core.NewMaster(core.MasterConfig{
		Transport:       comm.Instrument(comm.TCPTransport{}, cm),
		ListenAddr:      *listen,
		Formula:         f,
		MinMemBytes:     *minMem,
		Timeout:         *timeout,
		ExpectedClients: *expected,
		SplitStrategy:   *splitStrategy,
		Metrics:         reg,
		MetricsAddr:     *metricsAddr,
		Logger:          logger,
		Flight:          fl,
	})
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
	if err := writeTraceViews(fl, *perfettoPath, *dotPath); err != nil {
		return err
	}
	report(res.Status, res.Model, f)
	fmt.Printf("c wall=%.3fs max-clients=%d splits=%d shared-clauses=%d msgs=%d bytes=%d\n",
		res.Wall.Seconds(), res.MaxClients, res.Splits, res.SharedClauses,
		res.Comm.MsgsSent, res.Comm.BytesSent)
	return writeReport(*reportPath, fs.Arg(0), res, fl)
}

// cmdServe boots the long-lived multi-job scheduling service: a master
// with no job of its own, whose /jobs HTTP API (submit, status, cancel, result) rides the
// introspection server. Ctrl-C shuts the pool down cleanly.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":7070", "TCP listen address for solver clients")
	apiAddr := fs.String("api-addr", ":8080", "HTTP address for the /jobs API (also serves /metrics, /status, /progress)")
	policy := fs.String("sched", "fifo", "allocation policy: fifo | fair-share | priority")
	maxJobs := fs.Int("max-jobs", 0, "admission cap on active jobs (0 = derive from client count)")
	memBudget := fs.Int64("mem-budget", 0, "admission cap on summed active formula bytes (0 = unbounded)")
	minMem := fs.Int64("min-mem", 128<<20, "minimum client free memory (bytes)")
	rebalance := fs.Duration("rebalance", 0, "allocation review period (0 = 250ms)")
	timeout := fs.Duration("timeout", 0, "shut the service down after this long (0 = run until interrupted)")
	splitStrategy := fs.String("split-strategy", "", "split engine: "+solver.StrategyNames)
	logLevel := fs.String("log", "info", "structured log level (debug|info|warn|error; empty = off)")
	tracePath := fs.String("trace", "", "record the control-plane flight log as JSONL here")
	perfettoPath := fs.String("trace-perfetto", "", "also render the flight log as a Perfetto trace here")
	bundleDir := fs.String("bundle-dir", "", "write postmortem black-box bundles here on job failure/cancel, watchdog alerts, and POST /debug/bundle (empty = off)")
	fs.Parse(args)
	if *apiAddr == "" {
		return fmt.Errorf("serve needs -api-addr: the /jobs API rides the introspection server")
	}
	if _, err := core.ParseSchedPolicy(*policy); err != nil {
		return err
	}
	logger, err := runLogger(*logLevel)
	if err != nil {
		return err
	}
	fl, closeFlight, err := flightRecorder(*tracePath)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	// The API endpoints are consumed by NewMaster, so the service is built
	// unbound and attached once the master exists (requests in the gap
	// get 503).
	svc := core.NewService(nil)
	m, err := core.NewMaster(core.MasterConfig{
		Transport:       comm.Instrument(comm.TCPTransport{}, comm.NewMetrics(reg)),
		ListenAddr:      *listen,
		MinMemBytes:     *minMem,
		Timeout:         *timeout,
		SplitStrategy:   *splitStrategy,
		Metrics:         reg,
		MetricsAddr:     *apiAddr,
		Logger:          logger,
		Flight:          fl,
		SchedPolicy:     *policy,
		Admission:       core.Admission{MaxActive: *maxJobs, MemBudgetBytes: *memBudget},
		RebalancePeriod: *rebalance,
		ExtraEndpoints:  svc.Endpoints(),
		BundleDir:       *bundleDir,
	})
	if err != nil {
		return err
	}
	svc.Attach(m)
	fmt.Fprintln(os.Stderr, "gridsat serve: clients on", m.Addr())
	fmt.Fprintln(os.Stderr, "gridsat serve: job API on http://"+m.MetricsAddr()+"/jobs (policy "+*policy+")")

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
	return writeTraceViews(fl, *perfettoPath, "")
}

func cmdClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	master := fs.String("master", "localhost:7070", "master address")
	listen := fs.String("listen", ":0", "P2P listen address")
	mem := fs.Int64("mem", 512<<20, "free memory to report and budget from")
	speed := fs.Float64("speed", 1.0, "relative CPU speed hint")
	threads := fs.Int("threads", runtime.NumCPU(), "portfolio workers on this host (1 = classic single-solver client)")
	shareLen := fs.Int("share-len", 10, "maximum shared clause length")
	splitStrategy := fs.String("split-strategy", "", "split engine: "+solver.StrategyNames)
	fs.Parse(args)
	host, _ := os.Hostname()
	cl, err := core.NewClient(core.ClientConfig{
		Transport:     comm.TCPTransport{},
		MasterAddr:    *master,
		ListenAddr:    *listen,
		HostName:      host,
		FreeMemBytes:  *mem,
		SpeedHint:     *speed,
		Threads:       *threads,
		ShareMaxLen:   *shareLen,
		SplitStrategy: *splitStrategy,
	})
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
		frame := core.RenderTop(st, fetchSparks(client, base), *width)
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

// fetchSparks pulls the master's GET /history window and extracts the
// series the dashboard sparklines render. Best-effort: any failure (old
// master, sampler disabled) returns nil and the frame stays spark-free.
func fetchSparks(c *http.Client, base string) *core.TopSparks {
	var h struct {
		Series []history.SeriesDump `json:"series"`
	}
	if err := fetchJSON(c, base+"/history", &h); err != nil {
		return nil
	}
	vals := func(d history.SeriesDump) []float64 {
		if len(d.Tiers) == 0 {
			return nil
		}
		pts := d.Tiers[0].Points // finest tier: the newest window
		out := make([]float64, len(pts))
		for i, p := range pts {
			out[i] = p.V
		}
		return out
	}
	sp := &core.TopSparks{ClientRate: map[int][]float64{}}
	for _, d := range h.Series {
		switch {
		case d.Name == "cluster.coverage":
			sp.Coverage = vals(d)
		case d.Name == "cluster.conflict_rate":
			sp.Rate = vals(d)
		case strings.HasPrefix(d.Name, "client.") && strings.HasSuffix(d.Name, ".conflict_rate"):
			id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(d.Name, "client."), ".conflict_rate"))
			if err == nil {
				sp.ClientRate[id] = vals(d)
			}
		}
	}
	if len(sp.Coverage) == 0 && len(sp.Rate) == 0 && len(sp.ClientRate) == 0 {
		return nil
	}
	return sp
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

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	testbed := fs.String("testbed", "grads", "grads (34 hosts) or table2 (27 hosts)")
	timeout := fs.Float64("timeout-vsec", 6000, "virtual-second budget")
	threads := fs.Int("threads", runtime.NumCPU(), "simulated portfolio workers per simulated client (1 = classic single-solver clients; pin for cross-machine reproducibility). Not the simulator's own parallelism: it computes its clients on every core GOMAXPROCS allows, by itself, with the same result")
	shareLen := fs.Int("share-len", 10, "maximum shared clause length")
	splitStrategy := fs.String("split-strategy", "", "split engine: "+solver.StrategyNames)
	seed := fs.Int64("seed", 1, "contention/jitter seed")
	sequential := fs.Bool("sequential", false, "run the dedicated sequential baseline instead")
	batch := fs.Bool("batch", false, "submit a Blue Horizon batch job (table2 testbed)")
	timeline := fs.String("timeline", "", "write the active-clients-over-time curve as CSV")
	tracePath := fs.String("trace", "", "record the control-plane flight log as JSONL here")
	perfettoPath := fs.String("trace-perfetto", "", "also render the flight log as a Perfetto trace here")
	dotPath := fs.String("trace-dot", "", "also render the split-lineage tree as Graphviz DOT here")
	replay := fs.Bool("replay", false, "re-run the simulation and verify it reproduces the flight log exactly")
	watchdog := fs.Bool("watchdog", false, "run the anomaly watchdog over the simulated cluster (virtual-time thresholds)")
	bundleDir := fs.String("bundle-dir", "", "write deterministic postmortem bundles here on anomalies and job failure/cancel (implies -watchdog)")
	fs.Parse(args)
	f, err := loadCNF(fs.Arg(0))
	if err != nil {
		return err
	}
	// The DES degrades unknown strategies to first-decision; reject them
	// loudly at the flag boundary instead.
	if _, err := solver.ParseStrategy(*splitStrategy); err != nil {
		return err
	}
	// The grid is mutated during a run, so replay verification needs a
	// fresh, identically-seeded config per run — hence a constructor.
	mkCfg := func() (core.RunnerConfig, error) {
		var g *grid.Grid
		switch *testbed {
		case "grads":
			g = grid.TestbedGrADS(*seed)
		case "table2":
			g = grid.TestbedTable2(*seed)
		default:
			return core.RunnerConfig{}, fmt.Errorf("unknown testbed %q", *testbed)
		}
		cfg := core.RunnerConfig{
			Grid:          g,
			Formula:       f,
			TimeoutVSec:   *timeout,
			Threads:       *threads,
			ShareMaxLen:   *shareLen,
			SplitStrategy: *splitStrategy,
			MasterHostID:  -1,
			Seed:          *seed,
		}
		if *watchdog || *bundleDir != "" {
			cfg.Watchdog = &core.WatchdogConfig{}
			cfg.BundleDir = *bundleDir
		}
		if *batch {
			g.AddBlueHorizon(64)
			cfg.Batch = &core.BatchPlan{
				Nodes: 64, WalltimeVSec: 720, MeanQueueWaitVSec: 1980, TerminateOnEnd: true,
			}
		}
		return cfg, nil
	}
	if *sequential && (*tracePath != "" || *replay) {
		return fmt.Errorf("-trace/-replay need the distributed runner (drop -sequential)")
	}
	fl, closeFlight, err := flightRecorder(*tracePath)
	if err != nil {
		return err
	}
	// -replay needs the events in memory even without a -trace file.
	if *replay && fl == nil {
		fl = trace.NewFlight(nil)
	}
	cfg, err := mkCfg()
	if err != nil {
		return err
	}
	cfg.Flight = fl
	var res core.SimResult
	if *sequential {
		res = core.RunSequential(cfg)
	} else {
		res = core.RunDistributed(cfg)
	}
	if err := closeFlight(); err != nil {
		return err
	}
	if err := writeTraceViews(fl, *perfettoPath, *dotPath); err != nil {
		return err
	}
	if *replay {
		err := trace.ReplayVerify(fl.Events(), func(f2 *trace.Flight) error {
			cfg2, err := mkCfg()
			if err != nil {
				return err
			}
			cfg2.Flight = f2
			core.RunDistributed(cfg2)
			return nil
		})
		if err != nil {
			return fmt.Errorf("replay verification FAILED: %w", err)
		}
		fmt.Fprintf(os.Stderr, "gridsat: replay verified — re-run reproduced all %d flight events\n", fl.Len())
	}
	report(res.Status, res.Model, f)
	fmt.Printf("c outcome=%s vsec=%.1f max-clients=%d threads=%d splits=%d shared=%d work=%d-props msgs=%d bytes=%d\n",
		res.Outcome, res.VSec, res.MaxClients, res.Threads, res.Splits, res.Shared, res.TotalProps,
		res.Msgs, res.Bytes)
	for _, a := range res.Alerts {
		fmt.Printf("c alert rule=%s subject=%q vsec=%.1f detail=%q\n", a.Rule, a.Subject, a.TSec, a.Detail)
	}
	for _, b := range res.Bundles {
		fmt.Fprintln(os.Stderr, "gridsat: postmortem bundle written to", b)
	}
	if *timeline != "" && !*sequential {
		fd, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		defer fd.Close()
		fmt.Fprintln(fd, "vsec,busy_clients")
		for _, p := range res.Timeline {
			fmt.Fprintf(fd, "%.3f,%d\n", p.VSec, p.Busy)
		}
		fmt.Fprintf(os.Stderr, "gridsat: timeline (%d samples) written to %s\n", len(res.Timeline), *timeline)
	}
	return nil
}
