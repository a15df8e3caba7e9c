package core

import (
	"fmt"
	"sync"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/obs"
)

// JobConfig describes a self-contained distributed run: a master plus a
// pool of clients inside one process, connected by an in-process transport.
// This is the programmatic front end used by examples, tests and the CLI's
// "run" mode; real multi-machine deployments launch cmd/gridsat master and
// client processes over TCP instead. It holds the master's and the clients'
// configurations as deployed; Solve hands Master to NewMaster and Client to
// every NewClient, writing over them only what it models: in stamp the
// in-process transport and addresses, one registry (Master.Metrics, or a
// private one) for the transport and the master, and one flight recorder
// (Master's) for both halves; at launch each client's host name. Client.FreeMemBytes 0 is
// 256 MiB.
type JobConfig struct {
	// Clients is the pool size (the paper's testbed had 34; 0 = 4).
	Clients int
	// Threads and Timeout, when non-zero, override Client.Threads and
	// Master.Timeout.
	Threads int
	Timeout time.Duration
	Master  MasterConfig
	Client  ClientConfig
}

// stamp writes what the in-process shell models over the held
// configurations (see JobConfig), f as the master's job 0.
func (cfg *JobConfig) stamp(f *cnf.Formula, tr comm.Transport, reg *obs.Registry) {
	m, cl := &cfg.Master, &cfg.Client
	m.Transport, m.ListenAddr = tr, "master"
	m.Formula = f
	m.ExpectedClients = cfg.Clients
	m.Metrics = reg
	if cfg.Timeout != 0 {
		m.Timeout = cfg.Timeout
	}
	cl.Transport, cl.MasterAddr, cl.ListenAddr = tr, "master", ""
	cl.Flight = m.Flight
	if cfg.Threads != 0 {
		cl.Threads = cfg.Threads
	}
	if cl.FreeMemBytes == 0 {
		cl.FreeMemBytes = 256 << 20
	}
}

// Solve runs a complete GridSAT job over f and blocks for the result.
func Solve(f *cnf.Formula, cfg JobConfig) (Result, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	reg := cfg.Master.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cm := comm.NewMetrics(reg)
	cfg.stamp(f, comm.Instrument(comm.NewInprocTransport(), cm), reg)
	master, err := NewMaster(cfg.Master)
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
		cfg.Client.HostName = fmt.Sprintf("client-%02d", i)
		cl, err := NewClient(cfg.Client)
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
