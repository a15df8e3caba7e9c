package core

import (
	"fmt"
	"sync"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/obs"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// JobConfig describes a self-contained distributed run: a master plus a
// pool of clients inside one process, connected by an in-process transport.
// This is the programmatic front end used by examples, tests and the CLI's
// "run" mode; real multi-machine deployments launch cmd/gridsat master and
// client processes over TCP instead.
type JobConfig struct {
	// Clients is the pool size (the paper's testbed had 34).
	Clients int
	// ClientMemBytes is each simulated client's free memory.
	ClientMemBytes int64
	// ShareMaxLen bounds shared learned clauses (paper: 10 and 3).
	ShareMaxLen int
	// Timeout bounds the whole run; zero means none.
	Timeout time.Duration
	// MinRunTime floors the client split timeout; small values make test
	// runs split eagerly.
	MinRunTime time.Duration
	// SliceConflicts is the per-client solver quantum.
	SliceConflicts int64
	// Threads is each client's in-host portfolio width (0 or 1 =
	// single-solver clients, the historical behavior).
	Threads int
	// SolverOptions overrides engine tuning for every client.
	SolverOptions *solver.Options
	// SplitStrategy names the split engine every client runs
	// ("first-decision", "dilemma", "dilemma-veto"; "" = first-decision).
	SplitStrategy string
	// Metrics receives every observability series for the run (comm
	// traffic, master pool state, solver counters). nil allocates a
	// private registry, so instrumentation is always on — it is cheap
	// (see internal/bench's instrumentation ablation).
	Metrics *obs.Registry
	// MetricsAddr, when non-empty, serves /metrics, /status and pprof
	// from the master for the duration of the run.
	MetricsAddr string
	// Logger receives structured run logs; nil discards them.
	Logger *obs.Logger
	// Flight, when non-nil, records the run's control-plane flight log.
	// Master and clients share the one recorder, so causal parent IDs
	// resolve within a single log.
	Flight *trace.Flight
}

// Solve runs a complete GridSAT job over f and blocks for the result.
func Solve(f *cnf.Formula, cfg JobConfig) (Result, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.ClientMemBytes == 0 {
		cfg.ClientMemBytes = 256 << 20
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cm := comm.NewMetrics(reg)
	tr := comm.Instrument(comm.NewInprocTransport(), cm)
	counters := solver.NewCounters(reg)
	master, err := NewMaster(MasterConfig{
		Transport:       tr,
		ListenAddr:      "master",
		Formula:         f,
		Timeout:         cfg.Timeout,
		ExpectedClients: cfg.Clients,
		Metrics:         reg,
		MetricsAddr:     cfg.MetricsAddr,
		Logger:          cfg.Logger,
		Flight:          cfg.Flight,
		SplitStrategy:   cfg.SplitStrategy,
	})
	if err != nil {
		return Result{}, err
	}

	type runResult struct {
		res Result
		err error
	}
	masterDone := make(chan runResult, 1)
	go func() {
		res, err := master.Run()
		masterDone <- runResult{res, err}
	}()

	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		cl, err := NewClient(ClientConfig{
			Transport:      tr,
			MasterAddr:     "master",
			HostName:       fmt.Sprintf("client-%02d", i),
			FreeMemBytes:   cfg.ClientMemBytes,
			SpeedHint:      1,
			ShareMaxLen:    cfg.ShareMaxLen,
			SliceConflicts: cfg.SliceConflicts,
			MinRunTime:     cfg.MinRunTime,
			Threads:        cfg.Threads,
			SolverOptions:  cfg.SolverOptions,
			SplitStrategy:  cfg.SplitStrategy,
			Counters:       counters,
			Metrics:        reg,
			Flight:         cfg.Flight,
		})
		if err != nil {
			return Result{}, fmt.Errorf("core: launching client %d: %w", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cl.Run()
		}()
	}

	out := <-masterDone
	wg.Wait()
	out.res.Comm = cm.Totals()
	return out.res, out.err
}
