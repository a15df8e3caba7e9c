package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/grid"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// The DES runner is the second shell around the control plane: it drives
// one real Master and N real Clients — the values `gridsat serve` and
// `gridsat client` run — with no listeners, delivering their comm.Message
// values as grid.Sim events in virtual time. What lives here is only the
// grid model: client launch jitter, the virtual transport (delay =
// Network.Transfer of the message's real wire size, FIFO per link),
// compute time (a quantum of w propagations on a host with relative speed
// s and current availability a takes w/(R·s·a) virtual seconds, where R is
// propsPerVSec), NWS forecasts feeding the master's placement ranks, the
// batch system, failure injection, and timeline sampling.
//
// One goroutine — RunDistributed's — runs every event: the master, every
// client's control half, the transport. The only thing that leaves it is
// the compute half of a slice, which reads and writes nothing but its own
// client's solver and runs on one of runtime.GOMAXPROCS(0) workers. The
// order of events is that of a kernel that computed each quantum inline at
// its virtual start, whatever the worker count and however the workers are
// scheduled, by three rules (see settleQuanta, launchQuantum, joinQuanta):
//
//  1. the event loop runs the event at T only when every quantum in flight
//     has either finished — its end event is then in the queue — or has
//     published p propagations with T < t0 + p/rate, so it cannot end at or
//     before T (the progress bound);
//  2. a quantum's end event takes its place in the scheduling order when
//     the quantum is launched (grid.Sim.Reserve), so equal-time ties break
//     as if the end had been scheduled then;
//  3. whatever reads a computing client from the loop — a crash's or the
//     run's unreported tail, the verdict's TotalProps — first waits for
//     that quantum to finish.
//
// So a 34-host distributed run reproduces exactly, event for event, on one
// core or on many — this is the apparatus behind the Table-1/Table-2
// benchmarks.

// RunnerConfig configures a simulated run (sequential or distributed). It
// holds the master's and the clients' configurations as they would be
// deployed, and adds only what the DES models: the grid and its failures,
// the virtual clock, the batch system, the job arrivals. RunDistributed hands
// Master to the one newMaster and Client to every newClient, writing over
// them only what the shell models: in stamp the admission cap and one
// flight recorder (Master's) for both halves; at launch each client's host
// (name, free memory, speed) and its cadence (quantumProps propagations a
// slice, a heartbeat every slice). Fields only the live shell reads
// (Transport, addresses, Timeout, ...) are ignored.
type RunnerConfig struct {
	Grid *grid.Grid
	// Master configures the control plane. Master.Formula is the one-shot
	// run's instance, the master's job 0. Master.BundleDir
	// writes postmortem bundles synchronously with deterministic names and
	// no CPU profile, so a replayed run reproduces them. Master.Flight records
	// the run's control-plane events in virtual time; the simulation is
	// deterministic, so the same config reproduces the log exactly.
	Master MasterConfig
	// Client configures every simulated client. Client.SolverOptions nil
	// runs solver.Fidelity2003, the paper's engine, which every
	// virtual-time table is pinned to; its callbacks (OnLemma, OnLearn,
	// DecisionOverride) are invoked from the runner's worker goroutines —
	// serially for any one solver, concurrently across clients — so one
	// shared by all clients must synchronize what it touches.
	// Client.MinRunTime is the split-timeout floor in virtual
	// seconds (0 = 10, the paper's 100 s at this scale). With Client.Threads
	// K > 1, worker 0 (the pathfinder) drives the split policy while
	// workers 1..K-1 run diversified profiles, stepped in worker-index
	// order so the run stays deterministic.
	Client ClientConfig
	// Jobs makes the run a multi-job workload: Master.Formula is ignored and
	// each SimJob arrives at its ArrivalVSec, contending for idle clients
	// exactly like submissions to `gridsat serve` (it is the same master),
	// and the result carries one row per job. Empty = a one-shot run of
	// Master.Formula, the master's job 0.
	Jobs []SimJob
	// TimeoutVSec bounds the run in virtual seconds.
	TimeoutVSec float64
	// MaxClients caps the pool (0 = all hosts).
	MaxClients int
	// Batch, when non-nil, adds a Blue Horizon-style batch job (Table 2).
	Batch *BatchPlan
	// Failures schedules client crashes — the fault-tolerance extension of
	// paper §3.4: as for a dropped connection live, the master requeues the
	// cube a lost client held for an idle resource to restart.
	Failures []FailurePlan
	// MonitorPeriodVSec is the NWS sampling period.
	MonitorPeriodVSec float64
	// Watchdog turns on the sampler and the anomaly watchdog, ticked at the
	// monitor period with the live thresholds read as virtual seconds;
	// without it the monitor never samples.
	Watchdog bool
	// MigrationFactor enables the paper's §3.4 migration: when an idle
	// host's forecast rank exceeds a busy client's host rank by this
	// factor, the master stops that client and requeues its cube for the
	// best-ranked idle client to restart (e.g. from a lone remote desktop
	// to a freshly freed cluster node). 0 disables migration.
	MigrationFactor float64
	// Seed drives launch jitter.
	Seed int64
}

// propsPerVSec is R: solver propagations per virtual second on a dedicated
// speed-1.0 host. 1000 maps the synthetic instances onto the paper's time
// scale (paper seconds ≈ 10 × virtual seconds).
const propsPerVSec = 1000

// quantumProps is the simulated client's work slice, in propagations,
// between control-plane checks.
const quantumProps = 5000

// memDivisor scales host memory down to solver-budget scale, keeping the
// paper's memory-pressure dynamics at our reduced problem sizes.
const memDivisor = 100

// TimelinePoint is one sample of the active-client count.
type TimelinePoint struct {
	VSec float64 `json:"vsec"`
	Busy int     `json:"busy"`
}

// FailurePlan kills the client on a host at a virtual time.
type FailurePlan struct {
	HostID int
	AtVSec float64
}

// SimJob is one instance in a simulated multi-job workload.
type SimJob struct {
	Name    string
	Formula *cnf.Formula
	// Priority orders this job for idle clients (>= 1; higher first).
	Priority int
	// ArrivalVSec is when the job is submitted (virtual seconds).
	ArrivalVSec float64
	// CancelVSec, when > 0, cancels the job at that virtual time if it is
	// still active — the DES counterpart of POST /jobs/{id}/cancel.
	CancelVSec float64
}

// BatchPlan describes the Table-2 batch submission. As in the paper's
// Table-2 protocol, the run ends when the batch job's walltime expires.
type BatchPlan struct {
	// Nodes requested from the batch machine (each becomes one client).
	Nodes int
	// WalltimeVSec is the requested job duration.
	WalltimeVSec float64
	// MeanQueueWaitVSec is the average queue delay (paper: ~33 hours).
	MeanQueueWaitVSec float64
}

func (c *RunnerConfig) withDefaults() RunnerConfig {
	out := *c
	if out.Client.MinRunTime == 0 {
		out.Client.MinRunTime = 10 * time.Second // the paper's 100 s at 1/10 time scale
	}
	if out.MonitorPeriodVSec == 0 {
		out.MonitorPeriodVSec = 30
	}
	if out.Client.SolverOptions == nil {
		so := solver.Fidelity2003()
		out.Client.SolverOptions = &so
	}
	return out
}

// stamp writes what the DES models over the held configurations, except
// each client's host, which launch stamps: every configured job is admitted
// (the DES studies scheduling, not admission control); the clients share
// the master's flight recorder.
// An unknown strategy name degrades to the default — the CLI rejects it at
// the flag boundary.
func (c *RunnerConfig) stamp() {
	m, cl := &c.Master, &c.Client
	if _, err := solver.ParseStrategy(cl.SplitStrategy); err != nil {
		cl.SplitStrategy = ""
	}
	if len(c.Jobs) > 0 {
		m.Formula = nil
	}
	m.Admission = Admission{MaxActive: len(c.Jobs)}
	cl.Flight = m.Flight
}

// SimOutcome classifies how a simulated run ended.
type SimOutcome int

// Outcomes of a simulated run.
const (
	OutcomeSolved  SimOutcome = iota
	OutcomeTimeout            // virtual-time budget exhausted ("TIME_OUT")
	OutcomeMemOut             // sequential solver exceeded memory ("MEM_OUT")
)

// String renders the outcome the way the paper's tables do.
func (o SimOutcome) String() string {
	switch o {
	case OutcomeSolved:
		return "solved"
	case OutcomeTimeout:
		return "TIME_OUT"
	case OutcomeMemOut:
		return "MEM_OUT"
	}
	return "unknown"
}

// MarshalText renders the outcome as String does, so an outcome reads as
// text in JSON.
func (o SimOutcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses what MarshalText writes.
func (o *SimOutcome) UnmarshalText(b []byte) error {
	for _, v := range []SimOutcome{OutcomeSolved, OutcomeTimeout, OutcomeMemOut} {
		if string(b) == v.String() {
			*o = v
			return nil
		}
	}
	return fmt.Errorf("core: unknown outcome %q", b)
}

// SimResult is the record of a simulated run: the master's Result, as a
// live run ends with it, plus what the DES alone measures. Under the DES,
// Wall stays zero (VSec is the run's time), Comm counts the sent side only
// (see charge), and State is zero for RunSequential; a one-shot UNSAT run
// without lost work ends with State.Jobs[0].Units at exactly 2^62.
// MaxClients is the paper's "Max # of clients" column, the peak of Timeline.
type SimResult struct {
	Result
	Outcome SimOutcome `json:"outcome"`
	// VSec is the virtual solve time (the paper's seconds column ÷ 10).
	VSec float64 `json:"vsec"`
	// TotalProps is the real work executed across all clients.
	TotalProps int64 `json:"total_props"`
	// Timeline samples the number of simultaneously busy clients over
	// virtual time (taken at each monitor tick plus every busy-count
	// change). The paper describes exactly this curve: "this number starts
	// at one and varies during the run… When a problem is solved the
	// number of active clients collapses to zero."
	Timeline []TimelinePoint `json:"timeline"`
	// BatchStartVSec/BatchCanceled report the Table-2 batch interaction.
	BatchStartVSec float64 `json:"batch_start_vsec"`
	BatchCanceled  bool    `json:"batch_canceled"`
	// Agg sums solver counters across every client solver the run created:
	// the master's churn-proof heartbeat totals plus whatever a client had
	// not yet reported when it crashed or the run ended. Its
	// import-usefulness fields feed the share-efficacy view.
	Agg comm.SolverDeltas `json:"agg"`
	// Pool totals the in-host clause-pool exchange across every portfolio
	// client (zero for single-threaded runs).
	Pool PoolStats `json:"pool"`
	// Alerts is the watchdog's alert feed (virtual-time stamps; nil when
	// RunnerConfig.Watchdog was off) and Bundles the postmortem bundle
	// directories written during the run, in capture order.
	Alerts  []Alert  `json:"alerts"`
	Bundles []string `json:"bundles"`
}

// RunSequential simulates the paper's zChaff baseline: the engine on the
// fastest host in dedicated mode, with the scaled memory of that machine
// and the overall time out. The baseline retains learned clauses the way
// zChaff 2003 did (no aggressive database reduction), so hard instances
// genuinely exhaust memory — the "MEM_OUT" rows of Table 1.
func RunSequential(cfg RunnerConfig) SimResult {
	// Read before withDefaults fills in the clients' preset, which reduces.
	opts := solver.Fidelity2003()
	opts.MaxLearnts = 1 << 30 // zChaff-2003-style retention
	if cfg.Client.SolverOptions != nil {
		opts = *cfg.Client.SolverOptions
	}
	cfg = cfg.withDefaults()
	host := cfg.Grid.Hosts[0]
	for _, h := range cfg.Grid.Hosts {
		if h.Speed > host.Speed {
			host = h
		}
	}
	s := solver.New(cfg.Master.Formula, opts)
	memBudget := host.MemBytes / memDivisor * 60 / 100
	var vsec float64
	var props int64
	for {
		before := s.Stats().Propagations
		res := s.Solve(solver.Limits{
			MaxPropagations: quantumProps,
			MaxMemoryBytes:  memBudget,
		})
		delta := s.Stats().Propagations - before
		props += delta
		vsec += float64(delta) / (propsPerVSec * host.Speed) // dedicated: availability 1
		outcome := OutcomeSolved
		switch {
		case res.Status != solver.StatusUnknown:
		case res.Reason == solver.ReasonMemLimit:
			outcome = OutcomeMemOut
		case vsec >= cfg.TimeoutVSec:
			outcome = OutcomeTimeout
		default:
			continue
		}
		return SimResult{Result: Result{Status: res.Status, Model: res.Model, MaxClients: 1, Threads: 1},
			Outcome: outcome, VSec: vsec, TotalProps: props}
	}
}

// desClient is the shell's half of one simulated client: where it runs,
// and the state the live shell keeps in goroutines and channels.
type desClient struct {
	cl   *Client
	host *grid.Host
	// id is the master-issued client ID (known from connect, before the
	// client itself learns it from RegisterAck).
	id int
	// inbox queues control messages that arrive while a compute quantum is
	// in flight; they are handled at the slice boundary, like the live
	// client's control channel.
	inbox    []comm.Message
	stepping bool
	dead     bool
}

// quantum is one compute quantum in flight: launched by the event loop at
// its virtual start t0, computed by a worker, and handed back to the loop
// as the slice-end event at t0 + longest/rate.
type quantum struct {
	t0   float64
	rate float64 // propagations per virtual second on this host at t0
	// ticket is the end event's place in the scheduling order, reserved at
	// launch: where the inline kernel called sim.After.
	ticket grid.Ticket
	// search is the compute half, run on a worker; it calls publish with
	// the propagations done so far whenever it has a new count. end is the
	// control half, run by the event loop at the slice's virtual end.
	search func(publish func(done int64)) (longest, total int64)
	end    func()

	// Guarded by runner.mu: done is the last published count, finished is
	// set with longest (the busiest engine's propagations, which price the
	// quantum) and total (every engine's, which TotalProps accrues).
	done           int64
	finished       bool
	longest, total int64
}

// notBefore is the earliest virtual time q can end given the progress it
// has published: done <= longest, and both the conversion and the sum are
// monotone in floating point, so notBefore() <= the end event's time.
func (q *quantum) notBefore() float64 { return q.t0 + float64(q.done)/q.rate }

// runner is the DES shell: the simulation kernel, the grid model, and the
// one Master and many Clients it steps.
type runner struct {
	cfg   RunnerConfig
	sim   *grid.Sim
	info  *grid.InfoService
	m     *Master
	mhost *grid.Host
	// clients is keyed by master-issued ID (0 is the master itself on every
	// link); order is launch order, byHost finds a host's client.
	clients map[int]*desClient
	byHost  map[int]*desClient
	order   []int
	// arrive is the latest scheduled arrival on each directed link: links
	// are FIFO, like the TCP connections they stand for.
	arrive map[[2]int]float64
	// frame/relayed cache the decode of the master's last pre-encoded
	// broadcast, so a fan-out is decoded once, not once per recipient.
	frame   *comm.EncodedMessage
	relayed comm.Message
	// submitted counts cfg.Jobs arrivals so far (multi-job runs end when
	// every job has arrived and is terminal).
	submitted int

	// quanta lists the compute quanta in flight, in launch order; work
	// feeds them to the workers first in, first out. Only the event loop
	// touches quanta. mu orders the workers' progress reports with the
	// loop's reads of them; advanced wakes the loop when the quantum it
	// waits for (awaited) can no longer end at or before horizon, or has
	// finished.
	quanta   []*quantum
	work     chan *quantum
	mu       sync.Mutex
	advanced sync.Cond
	awaited  *quantum
	horizon  float64

	done     bool
	res      SimResult
	batchJob *grid.BatchJob
	batchSys *grid.BatchSystem
	rng      *rand.Rand
}

// errCrashed is the error a simulated host failure hands the master.
var errCrashed = errors.New("core: simulated host failure")

// RunDistributed simulates a full GridSAT run over the configured grid.
func RunDistributed(cfg RunnerConfig) SimResult {
	cfg = cfg.withDefaults()
	cfg.stamp()
	r := &runner{
		cfg:     cfg,
		sim:     grid.NewSim(),
		info:    grid.NewInfoService(cfg.Grid),
		clients: map[int]*desClient{},
		byHost:  map[int]*desClient{},
		arrive:  map[[2]int]float64{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	// A client computes at most one quantum at a time and a host runs at
	// most one client, so a queue of len(Hosts) never blocks the loop.
	defer r.startWorkers(runtime.GOMAXPROCS(0), len(cfg.Grid.Hosts))()
	m := newMaster(cfg.Master, r.sim.Now, r.toClient, func(spec BundleSpec) {
		// Written inline: no goroutine, so bundle contents are reproducible.
		if dir, err := WriteBundle(spec); err == nil {
			r.res.Bundles = append(r.res.Bundles, dir)
		}
	})
	r.m = m
	if n := len(cfg.Grid.Hosts); n > 0 {
		r.mhost = cfg.Grid.Hosts[n-1] // the paper ran its master at UCSD
	}

	// Jobs are submitted at their arrival times, in arrival order.
	for _, sj := range cfg.Jobs {
		r.sim.At(sj.ArrivalVSec, func() { r.submit(sj) })
	}

	// NWS monitoring: sample every host periodically and hand the master
	// the fresh forecasts it ranks placement (and migration) by.
	r.info.Observe(0)
	var monitor func()
	monitor = func() {
		if r.done {
			return
		}
		r.info.Observe(r.sim.Now())
		for _, hi := range r.info.Snapshot() {
			if dc := r.byHost[hi.Host.ID]; dc != nil && !dc.dead {
				m.noteForecast(dc.id, hi.Rank, hi.MemForecast)
			}
		}
		if cfg.Watchdog { // off: no sample, no alert
			m.sampleTick()
		}
		m.maybeMigrate(cfg.MigrationFactor, cfg.Client.MinRunTime.Seconds())
		m.serveBacklog() // a fresh forecast can lift a host over MinMemBytes
		r.settle()
		r.sim.After(cfg.MonitorPeriodVSec, monitor)
	}
	r.sim.After(cfg.MonitorPeriodVSec, monitor)

	// Launch an empty client on every interactive resource (paper §3.3:
	// "the master queries for the list of available resources and launches
	// an empty client on each").
	n := 0
	for _, h := range cfg.Grid.Hosts {
		if h.Batch {
			continue
		}
		if cfg.MaxClients > 0 && n >= cfg.MaxClients {
			break
		}
		n++
		r.launch(h)
	}
	m.femit(trace.FEvent{Kind: trace.FEvRunStart, N: int64(n)})

	// Fault injection: schedule the configured client crashes.
	for _, fp := range cfg.Failures {
		r.sim.At(fp.AtVSec, func() { r.fail(fp.HostID) })
	}

	// Table 2: submit the batch job; its nodes join when it starts.
	if cfg.Batch != nil {
		r.submitBatch()
	}

	r.run()
	if !r.done {
		r.finish(OutcomeTimeout)
		r.res.VSec = cfg.TimeoutVSec
	} else {
		r.res.VSec = r.sim.Now()
	}
	return r.res
}

// run drives the simulation event by event so the run stops the moment a
// result is known (and a still-queued batch job can be canceled, as the
// paper's GridSAT did when a problem was solved pre-allocation). It returns
// when the run is done, the queue is empty or the next event is past the
// time-out — in each case only once no quantum in flight could have put an
// earlier event in the queue.
func (r *runner) run() {
	for !r.done {
		t, ok := r.sim.NextAt()
		h := r.cfg.TimeoutVSec
		if ok {
			h = min(h, t)
		}
		if r.settleQuanta(h) {
			continue // an end event joined the queue: look at its head again
		}
		if !ok || t > r.cfg.TimeoutVSec {
			return
		}
		r.sim.Step()
	}
}

// startWorkers starts the n goroutines that compute quanta, fed first in,
// first out through a queue of the given length; the returned function
// stops them and returns when they have exited. Every quantum must have
// been joined by then, which finish sees to.
func (r *runner) startWorkers(n, queue int) (stop func()) {
	r.advanced.L = &r.mu
	r.work = make(chan *quantum, queue)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range r.work {
				longest, total := q.search(func(done int64) {
					r.mu.Lock()
					q.done = done
					r.wake(q)
					r.mu.Unlock()
				})
				r.mu.Lock()
				q.longest, q.total, q.finished = longest, total, true
				r.wake(q)
				r.mu.Unlock()
			}
		}()
	}
	return func() {
		close(r.work)
		wg.Wait()
	}
}

// wake signals the event loop if q is the quantum it waits for and q has
// finished or can no longer end at or before the loop's horizon. Called by
// a worker with mu held.
func (r *runner) wake(q *quantum) {
	if r.awaited == q && (q.finished || r.horizon < q.notBefore()) {
		r.advanced.Signal()
	}
}

// launchQuantum starts a compute quantum at the current virtual time on a
// host doing rate propagations per virtual second. The end event's place
// in the scheduling order is taken here, where the inline kernel scheduled
// it, so equal-time ties break as they always did.
func (r *runner) launchQuantum(rate float64, search func(publish func(int64)) (longest, total int64), end func()) {
	q := &quantum{t0: r.sim.Now(), rate: rate, ticket: r.sim.Reserve(), search: search, end: end}
	r.quanta = append(r.quanta, q)
	r.work <- q
}

// await blocks the event loop — on the condition variable, never spinning —
// until q has finished or has published enough progress that it cannot end
// at or before virtual time h. Called with mu held.
func (r *runner) await(q *quantum, h float64) {
	for !q.finished && !(h < q.notBefore()) {
		r.awaited, r.horizon = q, h
		r.advanced.Wait()
	}
	r.awaited = nil
}

// land queues the end event of a finished quantum, at the time the inline
// kernel computed at launch — t0 + longest/rate — and in the place reserved
// then. TotalProps accrues here, which is why finish joins first. Called
// with mu held.
func (r *runner) land(q *quantum) {
	r.sim.AtTicket(q.ticket, q.t0+float64(q.longest)/q.rate, q.end)
	r.res.TotalProps += q.total
}

// landFinished lands every quantum that has finished and drops it from
// r.quanta. Called with mu held.
func (r *runner) landFinished() {
	kept := r.quanta[:0]
	for _, q := range r.quanta {
		if q.finished {
			r.land(q)
		} else {
			kept = append(kept, q)
		}
	}
	clear(r.quanta[len(kept):])
	r.quanta = kept
}

// settleQuanta makes the kernel's queue safe to step up to virtual time h:
// it lands every quantum that has finished and, if there was none, waits
// until each quantum in flight cannot end at or before h and lands those
// that finished meanwhile. It reports whether it landed any: the caller
// must then look at the queue again, since an end event may precede h —
// which is also why it lands before it waits: the event that is next may
// already be known, and may launch more work.
func (r *runner) settleQuanta(h float64) (landed bool) {
	n := len(r.quanta)
	if n == 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.landFinished(); len(r.quanta) == n {
		for _, q := range r.quanta {
			r.await(q, h)
		}
		r.landFinished()
	}
	return len(r.quanta) < n
}

// joinQuanta waits for every quantum in flight to finish and lands it.
// Anything that reads a client which may be computing goes through it
// first: the inline kernel had run the whole quantum by then.
func (r *runner) joinQuanta() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range r.quanta {
		r.await(q, math.Inf(1))
	}
	r.landFinished()
}

// submitBatch queues the Blue Horizon-style job; each allocated node
// becomes one more client when (if) the job starts.
func (r *runner) submitBatch() {
	plan := r.cfg.Batch
	var nodes []*grid.Host
	for _, h := range r.cfg.Grid.Hosts {
		if h.Batch {
			nodes = append(nodes, h)
		}
	}
	bs := grid.NewBatchSystem(r.sim, nodes, plan.MeanQueueWaitVSec, r.cfg.Seed+77)
	job, err := bs.Submit(min(plan.Nodes, len(nodes)), plan.WalltimeVSec,
		func(j *grid.BatchJob) {
			if r.done {
				return
			}
			r.res.BatchStartVSec = j.StartAt
			for _, h := range j.Nodes {
				r.launch(h)
			}
		},
		func(*grid.BatchJob) { r.finish(OutcomeTimeout) })
	if err == nil {
		r.batchJob, r.batchSys = job, bs
	}
}

// launchDelayVSec is the mean client start-up latency (spawning an empty
// client on a Grid resource); actual delays jitter around it.
const launchDelayVSec = 4

// launch starts a client on h after the jittered spawn latency: a real
// Client whose clock is the simulation's and whose outbox is the virtual
// transport, registering with the master like any other.
func (r *runner) launch(h *grid.Host) {
	delay := launchDelayVSec * (0.5 + r.rng.Float64())
	r.sim.After(delay, func() {
		if r.done {
			return
		}
		dc := &desClient{host: h, id: r.m.connect()}
		ccfg := r.cfg.Client
		ccfg.HostName, ccfg.FreeMemBytes, ccfg.SpeedHint = h.Name, h.MemBytes/memDivisor, h.Speed
		cl, err := newClient(ccfg, r.sim.Now, func(to comm.SplitPeer, msg comm.Message) error {
			return r.fromClient(dc, to, msg)
		})
		if err != nil {
			return // unreachable: stamp normalized the strategy name
		}
		cl.addr = h.Name
		cl.slice = solver.Limits{MaxPropagations: quantumProps}
		cl.heartbeatEvery = 1
		cl.sequential = true
		dc.cl = cl
		r.clients[dc.id] = dc
		r.byHost[h.ID] = dc
		r.order = append(r.order, dc.id)
		_ = cl.register()
	})
}

// host maps a link endpoint to its machine: 0 is the master.
func (r *runner) host(id int) *grid.Host {
	if id == 0 {
		return r.mhost
	}
	return r.clients[id].host
}

// charge accrues one protocol message to the run's sent traffic
// (Result.Comm) at its real frame size and returns that size. The trace envelope is observability,
// not protocol, and is not charged: tracing must not change what it
// observes.
func (r *runner) charge(msg comm.Message) int64 {
	inner, _ := comm.Unwrap(msg)
	bytes := comm.WireSize(inner)
	r.res.Comm.MsgsSent++
	r.res.Comm.BytesSent += bytes
	return bytes
}

// fifo turns a transit time on the link from→to into an arrival time that
// never overtakes what the link already carries.
func (r *runner) fifo(from, to int, transit float64) float64 {
	key := [2]int{from, to}
	at := max(r.sim.Now()+transit, r.arrive[key])
	r.arrive[key] = at
	return at
}

// xfer puts msg on the wire from→to and returns its arrival time.
func (r *runner) xfer(from, to int, msg comm.Message) float64 {
	return r.fifo(from, to, r.cfg.Grid.Network.Transfer(r.host(from), r.host(to), r.charge(msg)))
}

// toClient is the master's outbox.
func (r *runner) toClient(to int, msg comm.Message) {
	dc := r.clients[to]
	if dc == nil || dc.dead {
		return
	}
	e, ok := msg.(*comm.EncodedMessage)
	if !ok {
		r.deliverAt(r.xfer(0, to, msg), dc, msg)
		return
	}
	// A relayed share batch: the master encodes once and hands every peer
	// the same frame. Decode it once too; recipients only read it.
	if e != r.frame {
		r.frame = e
		r.relayed, _ = e.Decode()
	}
	sc, ok := r.relayed.(comm.ShareClauses)
	if !ok {
		return
	}
	n := r.cfg.Grid.Network
	bytes := r.charge(e)
	transit := n.Transfer(r.mhost, dc.host, bytes)
	r.deliverAt(r.fifo(0, to, transit), dc, sc)
}

// fromClient is every client's outbox: the zero peer is the master.
func (r *runner) fromClient(dc *desClient, to comm.SplitPeer, msg comm.Message) error {
	if to.Addr == "" {
		r.sim.At(r.xfer(dc.id, 0, msg), func() {
			r.stepMaster(masterEvent{clientID: dc.id, msg: msg})
			if _, ok := msg.(comm.Register); ok && !r.done {
				// The Register carried the host's static attributes; from
				// here on the master ranks it by forecast like the rest.
				hi := r.info.Forecast(dc.host)
				r.m.noteForecast(dc.id, hi.Rank, hi.MemForecast)
			}
		})
		return nil
	}
	peer := r.clients[to.ID]
	if peer == nil || peer.dead {
		return errors.New("core: peer is gone") // the live dial would fail
	}
	r.deliverAt(r.xfer(dc.id, to.ID, msg), peer, msg)
	return nil
}

// deliverAt schedules msg's arrival at dc.
func (r *runner) deliverAt(at float64, dc *desClient, msg comm.Message) {
	r.sim.At(at, func() {
		if r.done || dc.dead {
			return
		}
		if dc.stepping {
			dc.inbox = append(dc.inbox, msg)
			return
		}
		dc.cl.handle(msg) // not stepping means idle
		r.step(dc)
	})
}

// stepMaster steps the master by one event and folds the consequences
// into the run.
func (r *runner) stepMaster(ev masterEvent) {
	if r.done {
		return
	}
	done, err := r.m.handle(ev)
	switch {
	case err != nil:
		r.finish(OutcomeTimeout) // job 0 ended without a sound verdict
	case done:
		r.finish(OutcomeSolved)
	default:
		r.settle()
	}
}

// settle runs after anything that may have changed the master's state: it
// ends the run once every job has arrived and reached a verdict or
// cancellation (a one-shot run's job 0 ends it sooner, through handle), and
// samples the busy count otherwise.
func (r *runner) settle() {
	if r.done {
		return
	}
	active := func(id int) bool { return r.m.jobs[id].State.Active() }
	if r.submitted == len(r.cfg.Jobs) && !slices.ContainsFunc(r.m.jobOrder, active) {
		r.finish(OutcomeSolved)
		return
	}
	r.sample(r.m.tally().busy)
}

// submit admits one configured job at its arrival time and schedules its
// cancellation, if any.
func (r *runner) submit(sj SimJob) {
	if r.done {
		return
	}
	r.submitted++
	id, err := r.m.submit(sj.Name, sj.Formula, sj.Priority)
	if err == nil && sj.CancelVSec > 0 {
		r.sim.At(sj.CancelVSec, func() {
			if !r.done {
				_ = r.m.cancel(id) // already finished: nothing to cancel
				r.settle()
			}
		})
	}
	r.settle()
}

// engines lists a client's live solvers, pathfinder first.
func engines(c *Client) []*solver.Solver {
	out := make([]*solver.Solver, len(c.port.workers))
	for i, w := range c.port.workers {
		out[i] = w.slv
	}
	return out
}

// progressProps is how many propagations a worker runs between progress
// reports: small enough that the event loop rarely waits long for the bound
// to pass the next event (256 propagations are a quarter of a virtual second
// on a speed-1 host, a twentieth of the default quantum), large enough that
// re-entering Solve costs nothing measurable.
const progressProps = 256

// searchQuantum is the compute half of cl's slice as a worker runs it:
// Client.searchSlice, with a single solver's quantum cut into resumed Solve
// calls of progressProps propagations so progress can be published between
// them. Solve checks its limits at the top of its loop, before every
// propagate, so a call that stops at a propagation limit and the call that
// resumes it take the steps one call would have taken
// (solver.TestChunkedSliceIsTheSameSearch). The slice of a portfolio of
// several workers stays one opaque call: no progress until it is done,
// which is the inline order.
// On a Threads-core host every worker advances "in parallel", so the
// quantum lasts as long as the busiest engine's propagations take, while
// TotalProps accrues the sum (the real work done).
func searchQuantum(cl *Client, publish func(done int64)) (res solver.Result, longest, total int64) {
	slvs := engines(cl)
	before := make([]int64, len(slvs))
	for i, s := range slvs {
		before[i] = s.Stats().Propagations
	}
	quantum := cl.slice.MaxPropagations
	if len(slvs) > 1 || quantum <= 0 {
		res = cl.searchSlice()
	} else {
		lim := cl.slice
		lim.MaxMemoryBytes = cl.memBudget()
		for done := int64(0); ; publish(done) {
			lim.MaxPropagations = min(progressProps, quantum-done)
			res = slvs[0].Solve(lim)
			done = slvs[0].Stats().Propagations - before[0]
			if res.Reason != solver.ReasonPropLimit || done >= quantum {
				break
			}
		}
	}
	for i, s := range slvs {
		d := max(s.Stats().Propagations-before[i], 1) // even an instant verdict takes some time
		total += d
		longest = max(longest, d)
	}
	return res, longest, total
}

// step launches one compute quantum for dc; its slice boundary is scheduled
// when it lands (settleQuanta). Until then dc.stepping parks every message
// for dc in its inbox, so nothing on the event loop touches the client the
// worker is computing.
func (r *runner) step(dc *desClient) {
	cl := dc.cl
	if r.done || dc.dead || dc.stepping || !cl.busy() {
		return
	}
	dc.stepping = true
	avail := r.cfg.Grid.Availability(dc.host, r.sim.Now())
	var res solver.Result // written by the worker, read after the quantum has landed
	r.launchQuantum(propsPerVSec*dc.host.Speed*avail, func(publish func(int64)) (longest, total int64) {
		res, longest, total = searchQuantum(cl, publish)
		return longest, total
	}, func() {
		if r.done || dc.dead {
			return
		}
		_ = cl.finishSlice(res)
		// The control poll closes the slice an instant (one ulp) later, so
		// a message arriving at exactly the boundary — a zero-delay reply
		// to what finishSlice just sent — is seen by this poll, as it can
		// be live.
		r.sim.At(math.Nextafter(r.sim.Now(), math.Inf(1)), func() {
			dc.stepping = false
			if r.done || dc.dead {
				return
			}
			inbox := dc.inbox
			dc.inbox = nil
			for _, msg := range inbox {
				cl.handle(msg)
			}
			r.step(dc)
		})
	})
}

// unreported is the solver work c has done since its last heartbeat.
func unreported(c *Client) comm.SolverDeltas {
	if !c.busy() {
		return comm.SolverDeltas{}
	}
	return heartbeatDeltas(solver.StatsDelta(c.port.Stats(), c.lastHB))
}

// retire takes a client out of the run for good (crash or end of run),
// adding to the record the solver work the master never heard about and
// the client's pool totals.
func (r *runner) retire(dc *desClient) {
	r.res.Agg.Add(unreported(dc.cl))
	dc.cl.dropSolver()
	r.res.Pool.add(dc.cl.pool)
	dc.dead = true
}

// fail simulates a host crash (paper §3.4): the client and whatever was on
// its way to it are gone, and the master hears of the loss behind what the
// client already sent, the way a dropped connection is noticed live.
func (r *runner) fail(hostID int) {
	dc := r.byHost[hostID]
	if r.done || dc == nil || dc.dead {
		return
	}
	r.joinQuanta() // the unreported tail is of the state the running quantum leaves
	r.retire(dc)
	r.sim.At(r.fifo(dc.id, 0, r.cfg.Grid.Network.Transfer(dc.host, r.mhost, 0)), func() {
		r.stepMaster(masterEvent{clientID: dc.id, err: errCrashed})
	})
}

// sample appends a timeline point, collapsing consecutive equal counts.
// The curve starts when the first client goes busy ("this number starts
// at one").
func (r *runner) sample(busy int) {
	tl := r.res.Timeline
	if len(tl) == 0 && busy == 0 {
		return
	}
	if len(tl) > 0 && tl[len(tl)-1].Busy == busy {
		return
	}
	r.res.Timeline = append(tl, TimelinePoint{VSec: r.sim.Now(), Busy: busy})
}

// finish ends the run and assembles the SimResult from the master's state.
func (r *runner) finish(outcome SimOutcome) {
	if r.done {
		return
	}
	r.done = true
	// Quanta in flight when the verdict lands were computed in full by the
	// inline kernel: TotalProps and each client's unreported tail count them.
	r.joinQuanta()
	m := r.m
	if outcome == OutcomeSolved || len(r.cfg.Jobs) > 0 {
		m.finishResult()
	} else {
		m.timeOut() // a one-shot run's UNKNOWN verdict
	}
	for _, id := range r.order {
		if dc := r.clients[id]; !dc.dead {
			r.retire(dc)
		}
	}
	res := &r.res
	traffic := res.Comm // the master's record carries no traffic of the DES's
	res.Result = m.result
	res.Comm = traffic
	res.Outcome = outcome
	res.Agg.Add(res.State.SolverDeltas)
	if r.cfg.Watchdog {
		res.Alerts = m.wd.feed()
	}
	r.sample(0) // every run ends with the client count collapsing to zero
	// Solved before the batch allocation arrived: withdraw the job
	// (Table 2: "the job queued from the Blue Horizon is canceled").
	if outcome == OutcomeSolved && r.batchJob != nil && r.batchJob.State == grid.JobQueued {
		r.batchSys.Cancel(r.batchJob)
		res.BatchCanceled = true
	}
}
