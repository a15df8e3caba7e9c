package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// ClientConfig configures a live GridSAT client.
type ClientConfig struct {
	Transport comm.Transport
	// MasterAddr is where to register.
	MasterAddr string
	// ListenAddr is the client's own P2P endpoint ("" auto-allocates).
	ListenAddr string
	HostName   string
	// FreeMemBytes is the measured free memory; the client budgets 60% of
	// it for the clause database (paper §3.3) and reports it to the master.
	FreeMemBytes int64
	SpeedHint    float64
	// ShareMaxLen bounds exported learned clauses (paper: 10 and 3);
	// 0 uses the default, negative disables sharing entirely.
	ShareMaxLen int
	// MinRunTime floors the split timeout (see SplitDecision); 0 uses
	// liveSplitFloor. It is read on the shell's clock: wall time live,
	// virtual seconds under the DES (the paper's 100 s is 10 there).
	MinRunTime time.Duration
	// SplitStrategy names the split engine used when the master asks this
	// client to shed work: "first-decision" (default, the paper's Figure-2
	// transform), "dilemma" (2^k-way cofactor split), or "dilemma-veto"
	// (dilemma with the bad-variable veto filter). See solver.ParseStrategy.
	SplitStrategy string
	// Threads is the in-host portfolio width: the client runs this many
	// diversified solver workers over each subproblem, exchanging learnt
	// clauses through a lock-free in-host pool, and presents itself to the
	// master as one client. 0 or 1 is one solver and no pool; the
	// pathfinder (worker 0) always runs the base options.
	Threads int
	// SolverOptions tunes the engine; nil runs solver.DefaultOptions, the
	// shipped engine (the DES passes solver.Fidelity2003 here).
	SolverOptions *solver.Options
	// Flight, when non-nil, records this client's share/memory events and
	// stamps its control messages with Lamport trace metadata so the
	// master's flight events can name their causes. In-process jobs pass
	// the master's recorder here; standalone TCP clients may carry their
	// own (parent IDs then resolve only within each process's log).
	Flight *trace.Flight
}

// liveSplitFloor is the wall-clock floor under §3.3's "split once the
// subproblem has run twice as long as it took to receive" when the
// configuration names none. The paper's 100 s guards a wide-area Grid
// against ping-pong, and the DES keeps that scale: RunnerConfig defaults
// MinRunTime to 10 virtual seconds. On a loopback cluster a split round
// trip (assign, peer-to-peer payload, accept) measured ≈ 35 ms when the donor
// answered at its next slice boundary, which is what 100 ms ≈ 3 round
// trips was sized on; now that the assignment cuts the slice it is ≈ 4 ms.
// The sweep in EXPERIMENTS.md ("Live split floor"): at 500 ms the second
// client idles through the first half of a second-long job (wall time
// +57 %), at 20 ms jobs that live for tens of milliseconds start paying
// for splits they cannot use; 100 ms is the smallest of the three that
// costs them nothing.
const liveSplitFloor = 100 * time.Millisecond

// liveSliceConflicts is the live client's solver quantum between
// control-plane checks (clause merges and share flushes; control kinds cut
// a slice short), and liveHeartbeatEvery how many slices pass between its
// StatusReports. The DES sets its own cadence at launch.
const (
	liveSliceConflicts = 2000
	liveHeartbeatEvery = 8
)

// splitLearntMaxCount caps the learnt clauses a split cofactor carries to
// its recipient; their length is bounded like any shared clause's, by
// ShareMaxLen.
const splitLearntMaxCount = 10000

func (c *ClientConfig) withDefaults() ClientConfig {
	out := *c
	if out.SpeedHint == 0 {
		out.SpeedHint = 1
	}
	if out.MinRunTime == 0 {
		out.MinRunTime = liveSplitFloor
	}
	if out.ShareMaxLen == 0 {
		out.ShareMaxLen = 10
	}
	return out
}

// Client is one GridSAT worker: a state machine stepped by handle (a control
// message, idle or at a slice boundary) and solveSlice (one solver quantum).
// Like Master it touches the world only through a clock and an outbox, so the
// same value runs under NewClient + Run (goroutines, comm.Transport, wall
// clock) and under RunDistributed (grid.Sim events, virtual clock).
type Client struct {
	cfg ClientConfig
	id  int
	// now is the shell's clock in seconds; send its outbox — the zero
	// SplitPeer addresses the master, anything else a peer client.
	now  func() float64
	send func(to comm.SplitPeer, msg comm.Message) error
	// slice bounds one solver quantum (the memory cap is added per slice);
	// a StatusReport goes to the master every heartbeatEvery slices;
	// sequential makes a portfolio step its workers one after another in
	// index order instead of racing them on goroutines. All three are the
	// shell's choice: the DES budgets propagations, heartbeats every slice
	// and needs the total order to stay deterministic at Threads > 1.
	slice          solver.Limits
	heartbeatEvery int
	sequential     bool
	// addr is this client's P2P endpoint as peers are told it.
	addr string

	// base is the current subproblem's formula; cached is the last
	// BaseProblem received, the formula of job cachedJob. The master ships a
	// job's formula before the client's first work for that job, and again
	// whenever the client comes back to it from another job's, so with base
	// the client holds at most two formulas, however many jobs it serves.
	base      *cnf.Formula
	cached    *cnf.Formula
	cachedJob int
	// job is the job the current (or last) subproblem belongs to; tagged
	// onto every outbound Solved/StatusReport/ShareClauses/SplitPayload.
	job      int
	strategy solver.SplitStrategy
	// port is the in-host portfolio solving the current subproblem (one
	// worker unless Threads > 1), nil while idle: holding one is what being
	// busy means. Searching, sharing and the heartbeat totals go through
	// port; splits and depth/coverage reporting through its pathfinder. pool
	// totals the exchange telemetry of every portfolio already torn down.
	port *portfolio
	pool PoolStats
	// cut stops every worker of the portfolio in flight and is nil while
	// there is none. It is the one piece of solving state another goroutine
	// may touch: the live shell's masterLoop calls it to end a slice early
	// (see interrupts).
	cut        atomic.Pointer[func()]
	recvAt     float64 // when the current subproblem arrived
	xferTime   float64
	splitAsked bool
	// regErr records a rejected registration.
	regErr error

	// shares batches OnLearn clauses for the master with duplicate
	// suppression; it outlives individual subproblems, so clauses learned
	// again after a re-assignment are not re-exported.
	shares *shareAggregator

	sliceCount int
	// lastHB is the Stats snapshot at the previous heartbeat; the next
	// StatusReport carries the delta so the master can sum without
	// worrying about per-subproblem counter resets.
	lastHB solver.Stats

	flight *trace.Flight
	// lastEv is this client's most recent flight event, carried as the
	// causal parent on its next stamped message.
	lastEv uint64

	// Live shell only: the master connection, the P2P listener, and the
	// queue masterLoop/peerLoop feed and Run drains. stop closes stopped —
	// masterLoop when the master disappears, Run when it returns — so no
	// loop blocks on the queue after that. loops counts masterLoop, peerLoop
	// and its per-connection readers, which Run waits for; peers holds the
	// P2P connections still being read (nil once Run is leaving), so a
	// peer that connected and went silent cannot hold Run back.
	master   comm.Conn
	listener comm.Listener
	control  chan comm.Message
	stopped  chan struct{}
	stop     func()
	loops    sync.WaitGroup
	peerMu   sync.Mutex
	peers    map[comm.Conn]struct{}
}

// busy reports whether the client holds a subproblem.
func (c *Client) busy() bool { return c.port != nil }

// femit records a flight event stamped with the shell's clock and
// remembers it as the causal parent for the next outbound message. No-op
// without a recorder.
func (c *Client) femit(ev trace.FEvent) uint64 {
	if c.flight == nil {
		return 0
	}
	ev.VSec = c.now()
	id := c.flight.Emit(ev)
	c.lastEv = id
	return id
}

// sendMaster sends a control message, wrapping it in a trace envelope
// (current Lamport time + last local event) when tracing is on.
func (c *Client) sendMaster(msg comm.Message) error {
	if c.flight != nil {
		msg = comm.Traced{
			Info: comm.TraceInfo{Lamport: c.flight.Tick(), Parent: c.lastEv},
			Msg:  msg,
		}
	}
	return c.send(comm.SplitPeer{}, msg)
}

// newClient builds the worker alone — no connection, listener or
// goroutine — wired to the given shell seams, at the live cadence.
func newClient(cfg ClientConfig, now func() float64, send func(comm.SplitPeer, comm.Message) error) (*Client, error) {
	cfg = cfg.withDefaults()
	strategy, err := solver.ParseStrategy(cfg.SplitStrategy)
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:            cfg,
		now:            now,
		send:           send,
		slice:          solver.Limits{MaxConflicts: liveSliceConflicts},
		heartbeatEvery: liveHeartbeatEvery,
		strategy:       strategy,
		shares:         newShareAggregator(shareFlushCount, shareFlushEvery, 0, now()),
		flight:         cfg.Flight,
	}
	return c, nil
}

// register announces the client to the master (paper §3.3).
func (c *Client) register() error {
	return c.send(comm.SplitPeer{}, comm.Register{
		Addr:         c.addr,
		HostName:     c.cfg.HostName,
		FreeMemBytes: c.cfg.FreeMemBytes,
		SpeedHint:    c.cfg.SpeedHint,
		Fanout:       c.strategy.MaxBatch(),
	})
}

// NewClient builds the live shell around a client: it dials the master,
// registers, and starts the receive loops.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Transport == nil {
		return nil, errors.New("core: client needs a transport")
	}
	started := time.Now()
	c, err := newClient(cfg, func() float64 { return time.Since(started).Seconds() }, nil)
	if err != nil {
		return nil, err
	}
	c.send = c.transmit
	l, err := cfg.Transport.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	mc, err := cfg.Transport.Dial(cfg.MasterAddr)
	if err != nil {
		l.Close()
		return nil, err
	}
	c.master, c.listener, c.addr = mc, l, l.Addr()
	c.control = make(chan comm.Message, 256)
	c.stopped = make(chan struct{})
	c.stop = sync.OnceFunc(func() { close(c.stopped) })
	c.peers = map[comm.Conn]struct{}{}
	fail := func(err error) (*Client, error) {
		l.Close()
		mc.Close()
		return nil, err
	}
	if err := c.register(); err != nil {
		return fail(err)
	}
	ack, err := mc.Recv()
	if err != nil {
		return fail(err)
	}
	if _, ok := ack.(comm.RegisterAck); !ok {
		return fail(fmt.Errorf("core: expected register-ack, got %s", ack.Kind()))
	}
	if c.handle(ack); c.regErr != nil {
		return fail(c.regErr)
	}
	c.loops.Add(2)
	go c.masterLoop()
	go c.peerLoop()
	return c, nil
}

// transmit is the live outbox: the master connection, or a one-shot dial
// to a peer's P2P endpoint.
func (c *Client) transmit(to comm.SplitPeer, msg comm.Message) error {
	if to.Addr == "" {
		return c.master.Send(msg)
	}
	conn, err := c.cfg.Transport.Dial(to.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return conn.Send(msg)
}

// ID returns the master-assigned client ID.
func (c *Client) ID() int { return c.id }

// Addr returns the client's P2P address.
func (c *Client) Addr() string { return c.addr }

func (c *Client) masterLoop() {
	defer c.loops.Done()
	for {
		msg, err := c.master.Recv()
		if err != nil {
			c.stop()
			return
		}
		select {
		case c.control <- msg:
		case <-c.stopped:
			return
		}
		// Queue first, then cut: Run looks at the queue before every slice,
		// so a cut that lands between slices (or on a solver already gone)
		// still finds its message handled before the next full slice, at
		// the price of at most one empty one.
		if interrupts(msg) {
			c.cutSlice()
		}
	}
}

// cutSlice stops the engine(s) in flight, if any; Solve returns
// ReasonStopped at its next step and stays resumable. Safe from any
// goroutine.
func (c *Client) cutSlice() {
	if cut := c.cut.Load(); cut != nil {
		(*cut)()
	}
}

// interrupts reports whether a master message ends the running slice
// instead of waiting for its boundary: the kinds somebody else is blocked
// on (an idle peer waiting for its half, a scheduler waiting for the
// client, a cluster waiting to stop). Shared clauses and base formulas
// keep merging at slice boundaries, which is the paper's design.
func interrupts(msg comm.Message) bool {
	switch msg.(type) {
	case comm.SplitAssign, comm.StopWork, comm.Shutdown:
		return true
	}
	return false
}

// peerLoop accepts P2P connections carrying split payloads from donors.
func (c *Client) peerLoop() {
	defer c.loops.Done()
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return
		}
		c.peerMu.Lock()
		if c.peers == nil { // Run is leaving
			c.peerMu.Unlock()
			_ = conn.Close()
			return
		}
		c.peers[conn] = struct{}{}
		c.peerMu.Unlock()
		c.loops.Add(1)
		go func() {
			defer c.loops.Done()
			defer func() {
				c.peerMu.Lock()
				delete(c.peers, conn)
				c.peerMu.Unlock()
				_ = conn.Close()
			}()
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			select {
			case c.control <- msg:
			case <-c.stopped:
			}
		}()
	}
}

// stopLoops ends the shell's goroutines and waits for them, so nothing of
// this client touches a connection or the control queue once Run returns.
func (c *Client) stopLoops() {
	c.stop()
	_ = c.listener.Close()
	_ = c.master.Close()
	c.peerMu.Lock()
	for conn := range c.peers {
		_ = conn.Close()
	}
	c.peers = nil
	c.peerMu.Unlock()
	c.loops.Wait()
}

// Run is the client's main loop: wait for work, solve in slices, obey the
// control plane. Returns when the master sends Shutdown or disappears,
// after joining the goroutines NewClient started.
func (c *Client) Run() error {
	defer c.stopLoops()
	for {
		var msg comm.Message
		if c.busy() {
			// Busy: drain the control plane, then solve one slice.
			select {
			case msg = <-c.control:
			case <-c.stopped:
				return nil
			default:
				if err := c.solveSlice(); err != nil {
					return err
				}
				continue
			}
		} else {
			select {
			case msg = <-c.control:
			case <-c.stopped:
				return nil
			}
		}
		if done := c.handle(msg); done {
			return nil
		}
	}
}

// handle takes one control message, idle or between slices. What a message
// does depends on the client's state now, not the state a slice started in:
// the slice may just have ended the subproblem (or an earlier message in the
// same drain may have stopped it), and an assignment that lands in that
// window must start, not be dropped.
func (c *Client) handle(msg comm.Message) bool {
	switch m := msg.(type) {
	case comm.RegisterAck:
		// The master sends one, before any work.
		if m.Rejected {
			c.regErr = fmt.Errorf("core: registration rejected: %s", m.Reason)
			return true
		}
		c.id = m.ClientID
	case comm.BaseProblem:
		// A scheduling master may pre-ship another job's formula while this
		// client is still busy (reserved as a split recipient).
		c.cached, c.cachedJob = m.Formula, m.Job
	case comm.SplitPayload:
		// A busy client bounces the payload (startSubproblem hands it back as
		// leftover) so the search space is requeued rather than lost.
		c.startSubproblem(m.SplitID, m.Job, m.Subs)
	case comm.SplitAssign:
		c.performSplit(m.SplitID, m.Peers)
	case comm.StopWork:
		c.performStop(m.Job, m.Seq)
	case comm.ShareClauses:
		// An idle client drops the batch. Shares are sound only within their
		// job's formula, and what arrived is noted before importing: a peer's
		// clauses must never be re-exported by this client.
		if c.busy() && m.Job == c.job {
			c.shares.NoteReceived(m.Clauses)
			_ = c.port.ImportClauses(m.Clauses)
			c.femit(trace.FEvent{Kind: trace.FEvShareMerge, Client: c.id, Peer: m.From,
				Job: c.job, N: int64(len(m.Clauses))})
		}
	case comm.Shutdown:
		return true
	}
	return false
}

// startSubproblem builds a solver for the received subproblem. A recipient
// always gets exactly one: multi-subproblem payloads exist only on the
// donor-to-master leftover path.
func (c *Client) startSubproblem(splitID, job int, subs []*solver.Subproblem) {
	// Failure acks carry the subproblems back as Leftover so the master
	// can requeue them: an unstartable cofactor is still live search
	// space, and dropping it could declare UNSAT without searching it.
	if len(subs) != 1 {
		_ = c.sendMaster(comm.SplitDone{SplitID: splitID, OK: false,
			Err: fmt.Sprintf("expected one subproblem, got %d", len(subs)), Leftover: subs})
		return
	}
	sub := subs[0]
	if c.busy() {
		_ = c.sendMaster(comm.SplitDone{SplitID: splitID, OK: false,
			Err: "already busy", Leftover: subs})
		return
	}
	if c.cached == nil || c.cachedJob != job {
		_ = c.sendMaster(comm.SplitDone{SplitID: splitID, OK: false,
			Err: "no base problem cached", Leftover: subs})
		return
	}
	c.base, c.job = c.cached, job
	opts := solver.DefaultOptions()
	if c.cfg.SolverOptions != nil {
		opts = *c.cfg.SolverOptions
	}
	opts.ShareMaxLen = c.cfg.ShareMaxLen
	// One worker exports straight to the aggregator (OnLearn passes a fresh
	// copy, so it may retain it). K > 1 diversified workers publish to the
	// in-host pool instead, and the clauses within the cluster share bound
	// are forwarded to the aggregator between slices (see finishSlice).
	opts.OnLearn = c.shares.Learn
	port, err := newPortfolio(c.base, sub, opts, max(1, c.cfg.Threads), c.cfg.ShareMaxLen)
	if err != nil {
		_ = c.sendMaster(comm.SplitDone{SplitID: splitID, OK: false, Err: err.Error()})
		return
	}
	port.sequential = c.sequential
	c.port = port
	cut := port.StopAll
	c.cut.Store(&cut)
	c.splitAsked = false
	c.lastHB = solver.Stats{} // fresh solver: deltas restart from zero
	c.recvAt = c.now()
	// Rough transfer-time proxy, proportional to payload size (a
	// microsecond per assumption, 16 per learnt clause); a root assignment
	// carries neither, so it waits out the bare floor.
	c.xferTime = float64(len(sub.Assumptions)+16*len(sub.Learnts)) * 1e-6
	_ = c.sendMaster(comm.SplitDone{SplitID: splitID, OK: true, Cube: sub.Cube})
}

// solveSlice advances the solver one quantum and handles terminal states
// and split triggers.
func (c *Client) solveSlice() error {
	return c.finishSlice(c.searchSlice())
}

// memBudget is the clause-database allowance: 60% of free memory (§3.3).
func (c *Client) memBudget() int64 { return c.cfg.FreeMemBytes * 60 / 100 }

// searchSlice is the compute half of a slice — the only part that costs
// solver time, which is what the DES prices in virtual seconds.
func (c *Client) searchSlice() solver.Result {
	lim := c.slice
	lim.MaxMemoryBytes = c.memBudget()
	return c.port.Solve(lim)
}

// finishSlice is the control half: flush shares, heartbeat, report a
// verdict, or evaluate the split triggers.
func (c *Client) finishSlice(res solver.Result) error {
	// Pool clauses within the cluster bound ride the normal master-mediated
	// share path; the aggregator dedups and ranks.
	c.port.DrainClusterShares(c.shares.Learn)
	worker := max(c.port.Winner(), 0)
	c.flushShares()
	c.sliceCount++
	if c.sliceCount%c.heartbeatEvery == 0 {
		c.sendHeartbeat()
	}
	if res.Status != solver.StatusUnknown {
		c.drainShares()   // don't strand learned clauses in the aggregator
		c.sendHeartbeat() // flush the tail deltas before Solved
		// An extra worker's UNSAT refutes a (possibly pre-split) superset
		// of the pathfinder's subspace, so the master's closing the
		// pathfinder's cube never over-counts coverage.
		solved := comm.Solved{Status: res.Status, Model: res.Model, Worker: worker, Job: c.job}
		c.dropSolver()
		return c.sendMaster(solved)
	}
	// Still unknown: evaluate the split triggers.
	dec := SplitDecision{
		MemBudgetBytes: c.memBudget(),
		TransferTime:   c.xferTime,
		MinRunTime:     c.cfg.MinRunTime.Seconds(),
	}
	if res.Reason == solver.ReasonMemLimit {
		// Out of budget right now: ask for a split and shed inactive
		// learned clauses so progress continues while the master looks
		// for an idle resource (paper §4.2). The freed bytes reach the
		// master through the next heartbeat's ReclaimedBytes delta.
		c.requestSplit(comm.SplitMemoryPressure)
		freed := c.port.ShedMemory()
		c.femit(trace.FEvent{Kind: trace.FEvMemShed, Client: c.id, N: freed})
		return nil
	}
	if ask, why := dec.ShouldSplit(c.port.MemoryBytes(), c.now()-c.recvAt); ask {
		c.requestSplit(why)
	}
	return nil
}

// dropSolver forgets the current engine(s), folding the portfolio's pool
// telemetry into the client's running totals first.
func (c *Client) dropSolver() {
	if c.busy() {
		c.pool.add(c.port.PoolStats())
	}
	c.port = nil
	c.cut.Store(nil)
}

// sendHeartbeat reports the current solver gauges plus the counter
// increments since the previous heartbeat; the master aggregates the
// deltas into its live cluster view.
func (c *Client) sendHeartbeat() {
	if !c.busy() {
		return
	}
	st := c.port.Stats()
	d := solver.StatsDelta(st, c.lastHB)
	c.lastHB = st
	_ = c.sendMaster(comm.StatusReport{
		MemBytes: c.port.MemoryBytes(),
		Learnts:  c.port.NumLearnts(),
		Job:      c.job,
		Deltas:   heartbeatDeltas(d),
		Workers:  c.port.WorkerReports(),
	})
}

// heartbeatDeltas maps a solver Stats delta onto the wire struct.
func heartbeatDeltas(d solver.Stats) comm.SolverDeltas {
	return comm.SolverDeltas{
		Decisions:      d.Decisions,
		Conflicts:      d.Conflicts,
		Propagations:   d.Propagations,
		Implications:   d.Implications,
		Learned:        d.Learned,
		ReclaimedBytes: d.ReclaimedBytes,

		Imported:             d.Imported,
		ImportedImplications: d.ImportedImplications,
		ImportedResolutions:  d.ImportedResolutions,
		ImportedUseful:       d.ImportedUseful,
	}
}

func (c *Client) requestSplit(why comm.SplitReason) {
	if c.splitAsked {
		return
	}
	c.splitAsked = true
	_ = c.sendMaster(comm.SplitRequest{ClientID: c.id, Why: why})
}

// performSplit executes Figure 3's messages (3) and (5), generalized to a
// strategy batch: run the configured split strategy, ship one cofactor to
// each assigned peer in order, and report to the master how many peers were
// actually served plus any leftover cofactors for the master to backlog.
func (c *Client) performSplit(splitID int, peers []comm.SplitPeer) {
	c.splitAsked = false
	if !c.busy() {
		// The assignment raced with this client finishing its subproblem;
		// report failure so the master releases the reserved recipient.
		_ = c.sendMaster(comm.SplitDone{SplitID: splitID, OK: false, Err: "donor already idle"})
		return
	}
	batch, err := c.strategy.Split(c.port.Pathfinder(), c.cfg.ShareMaxLen, splitLearntMaxCount)
	if err != nil {
		_ = c.sendMaster(comm.SplitDone{SplitID: splitID, OK: false, Err: err.Error()})
		return
	}
	// The strategy has already committed the donor to its own cofactor, so
	// from here every subproblem in the batch must reach somebody: peers are
	// served in assignment order, and on the first delivery failure the rest
	// of the batch rides back to the master as leftover instead of being
	// lost. The master releases the unserved peers (the suffix after Used).
	used := 0
	var served [][]cnf.Lit
	for used < len(peers) && used < len(batch) {
		if err := c.sendToPeer(splitID, peers[used], batch[used]); err != nil {
			break
		}
		served = append(served, batch[used].Cube)
		used++
	}
	c.recvAt = c.now() // the narrowed problem restarts the timeout clock
	_ = c.sendMaster(comm.SplitDone{SplitID: splitID, OK: true, Cube: c.port.Pathfinder().Path(),
		Used: used, Served: served, Leftover: batch[used:]})
}

// stopSolving tears the active solver (or portfolio) down and goes idle.
func (c *Client) stopSolving() {
	c.cutSlice()
	c.dropSolver()
}

// performStop drops the current subproblem and acks with Stopped: its job
// is done or cancelled, or the master moves the subproblem elsewhere (§3.4
// migration), its cube already requeued. The clauses it learnt still
// go out first, for the peers that keep searching. A stop that raced with
// the client going idle is acked all the same, so the master can return the
// client to the pool.
func (c *Client) performStop(job, seq int) {
	if c.busy() && job == c.job {
		c.drainShares()
		c.sendHeartbeat()
		c.stopSolving()
	}
	_ = c.sendMaster(comm.Stopped{Job: job, Seq: seq})
}

func (c *Client) sendToPeer(splitID int, peer comm.SplitPeer, sub *solver.Subproblem) error {
	return c.send(peer, comm.SplitPayload{SplitID: splitID, Job: c.job,
		Subs: []*solver.Subproblem{sub}})
}

// flushShares sends a batch to the master when the aggregator's flush
// policy (count or interval) says it is time.
func (c *Client) flushShares() {
	c.sendShareBatch(c.shares.TakeBatch(c.now()))
}

// drainShares force-flushes whatever is pending — called when the client
// finishes a subproblem so nothing learned is lost.
func (c *Client) drainShares() {
	c.sendShareBatch(c.shares.Drain(c.now()))
}

func (c *Client) sendShareBatch(batch []cnf.Clause) {
	if len(batch) == 0 {
		return
	}
	c.femit(trace.FEvent{Kind: trace.FEvShareFlush, Client: c.id, Job: c.job, N: int64(len(batch))})
	_ = c.sendMaster(comm.ShareClauses{From: c.id, Job: c.job, Clauses: batch})
}
