package core

import (
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/obs"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// MasterConfig configures a live GridSAT master.
type MasterConfig struct {
	Transport comm.Transport
	// ListenAddr is where clients register ("" lets the transport choose).
	ListenAddr string
	// Formula, when non-nil, makes this a one-shot master: the formula is
	// admitted as job 0 before the first client registers, and Run returns
	// with that job's verdict. nil builds a service that lives until
	// Shutdown. Either way jobs arrive through Submit (or POST /jobs).
	Formula *cnf.Formula
	// MinMemBytes rejects clients below this free-memory floor
	// (128 MB in the paper; tests use small values).
	MinMemBytes int64
	// Timeout aborts the run without an answer (the paper's 6000 s /
	// 12000 s overall time outs). Zero means no timeout.
	Timeout time.Duration
	// ExpectedClients, when positive, holds every job's root back until
	// that many clients have registered, which keeps small test topologies
	// deterministic. Zero assigns to the first registrant.
	ExpectedClients int
	// Metrics receives the master's counters, gauges, and histograms;
	// nil allocates a private registry.
	Metrics *obs.Registry
	// Logger receives structured master events, tagged component=master
	// and, when Flight is set, lamport=N; nil discards them.
	Logger *slog.Logger
	// MetricsAddr, when non-empty, serves live HTTP introspection on
	// that address (":0" picks a port — see MetricsAddr()): /metrics is
	// Prometheus text, /status the JSON ClusterState, /history the ring of
	// samples, /jobs the job API (see serve.go), and /debug/pprof is the Go
	// profiler.
	MetricsAddr string
	// Flight, when non-nil, records the master's control-plane events
	// (joins, splits, relays, verdict) as a causal flight log. In-process
	// jobs share one recorder between master and clients, so the Parent
	// IDs carried in traced messages resolve within the same log; the
	// introspection server additionally exposes /trace, /trace.json (Chrome
	// trace-event format) and /tree (split lineage).
	Flight *trace.Flight
	// Admission bounds what Submit accepts (active-job cap and formula
	// memory budget); the zero value derives the cap from the registered
	// client count.
	Admission Admission
	// BundleDir, when non-empty, enables postmortem black-box bundles:
	// on job failure/cancellation, a fired watchdog rule, or POST
	// /debug/bundle, a self-contained diagnosis directory is written
	// under it (see WriteBundle).
	BundleDir string
}

// Result is the outcome of a distributed run: the master's last
// ClusterState plus what the shell measured around it. Both shells end with
// it: a live run returns it, a simulated run's SimResult embeds it. Its JSON
// form is a -report's and an ablation row's; Model and Wall stay out of it
// (a SAT job's row in State.Jobs carries its model).
type Result struct {
	Status solver.Status  `json:"status"`
	Model  cnf.Assignment `json:"-"`
	Wall   time.Duration  `json:"-"`
	// MaxClients is the peak number of simultaneously busy clients —
	// the last column of the paper's Table 1.
	MaxClients int `json:"max_clients"`
	// Threads is the widest in-host portfolio the master saw in a
	// heartbeat (1 when every client ran single-threaded, or when no client
	// reported before the run ended). The DES heartbeats every slice, so
	// there it is the configured width once any client has run a slice.
	Threads int `json:"threads"`
	// Comm is the wire-traffic summary. The live shells fill it from their
	// instrumented transport (Solve, cmd/gridsat); the DES counts the sent
	// side only, every message at its real wire size, and leaves MsgsRecv,
	// BytesRecv and PerKind zero. Zero when uninstrumented.
	Comm comm.Totals `json:"comm"`
	// State is the master's ClusterState at the end of the run: splits,
	// migrations, shared clauses, the per-client rows and job 0's row
	// (its lifecycle timestamps and SLO decomposition) in State.Jobs[0].
	State ClusterState `json:"state"`
}

type masterClient struct {
	id       int
	addr     string
	hostName string
	// rank and freeMem are what placement decides on: seeded from the
	// client's Register (speed hint × free MB, free bytes) and replaced
	// whenever the shell hands over a fresher forecast (noteForecast).
	// usedMem is the latest heartbeat's arena size — a different quantity,
	// reported in /status and to the watchdog, never ranked or admitted on.
	rank    float64
	freeMem int64
	usedMem int64
	// fanout is how many cofactors one split of this client hands out, as
	// its Register stated: the recipients a request of it reserves.
	fanout int
	state  clientState
	assignment
	// unacked is the master-held subproblem (a root included) in flight to
	// this client until its SplitDone settles (or requeues) it.
	unacked *backlogSub
	// job is the job this client is (or was last) working for. The zero
	// value names job 0 — see newMaster on what that does to a one-shot run.
	job int
	// stopSeq numbers this client's StopWork sends. The client echoes it in
	// Stopped, letting the master drop acks from stops that a racing
	// verdict already beat — the client may have been reassigned by the
	// time a stale ack lands, and honoring it would wrongly free a busy
	// client.
	stopSeq int
	// baseJob is the job whose base formula the client has cached (-1:
	// none yet). The client caches one, so ensureBase sends a job's formula
	// again when the client comes back to that job from another.
	baseJob int

	// Live cluster view: totals summed from heartbeat deltas plus the
	// latest gauges.
	agg       comm.SolverDeltas
	dbLearnts int
	// conf is the EWMA conflict throughput from heartbeat deltas; conf.at
	// is the last heartbeat that counted.
	conf ewma
	// workers is the latest per-worker portfolio breakdown from the
	// client's heartbeat (nil for single-threaded clients).
	workers []comm.WorkerReport
}

// clientState is where a client stands in the master's table. Only an idle
// client is offered work; every other state counts as one live subproblem of
// its job in the UNSAT test. A parked client holds nothing (its cube was
// requeued: a lost donor's recipient, a late accept, a migrated client).
type clientState int

const (
	idle     clientState = iota
	reserved             // recipient of one unsettled leg of a pendingSplits group
	busy                 // holds its cube
	stopping             // busy with a StopWork in flight: holds its cube until the ack or a verdict
	parked               // reserved with a StopWork in flight
)

// holds reports whether the client holds its cube: it is busy, or stopping.
func (c *masterClient) holds() bool { return c.state == busy || c.state == stopping }

// assignment is a client's current subproblem as the master sees it: its
// cube, when it was handed out and, once the client asked for help with it,
// when it asked. Handing the client a new subproblem replaces the whole
// value, so a split request is only ever about the subproblem it was made
// for, and nothing that ends a subproblem has to withdraw one.
type assignment struct {
	assignedAt float64 // master clock seconds
	// cube is the subproblem's guiding path as sent or acknowledged, narrowed
	// by each OK SplitDone of the client as a donor (FIFO: before any verdict).
	cube []cnf.Lit
	// splitAt is when the client asked to have this subproblem split; 0
	// until it asks, and again once a split serves it. (Every request
	// follows a solver slice, so none is made at time 0.)
	splitAt float64
	// splitReqEv is the request's flight-log ID, the causal parent of the
	// split-issue that serves it.
	splitReqEv uint64
}

// wantsSplit reports whether c's split request can be served: it asked
// about the subproblem it holds, and it is not being stopped.
func (c *masterClient) wantsSplit() bool { return c.splitAt > 0 && c.state == busy }

// splitGroup is one in-flight transfer: the donor splits and ships one
// cofactor to each reserved recipient. A first-decision split reserves one
// recipient; a 2^k dilemma split reserves up to 2^k-1.
type splitGroup struct {
	donor int
	// job is the job the donor was splitting for; recipients join it.
	job int
	// recipients are the reserved peers in assignment order; settled marks
	// those whose leg has concluded (accepted, failed, or released unused).
	recipients []int
	settled    map[int]bool
	// donorDone is set once the donor's SplitDone arrived.
	donorDone bool
	// made: legs' cubes counted elsewhere before the donor reports (accepted
	// or bounced); served: the cubes its SplitDone says it shipped, in order.
	made       [][]cnf.Lit
	served     [][]cnf.Lit
	assignedAt float64
	// issueEv is the split-issue flight event, parent of the accept/fail.
	issueEv uint64
}

// done reports whether the group can be forgotten: the donor reported and
// every recipient leg concluded.
func (g *splitGroup) done() bool {
	return g.donorDone && len(g.settled) == len(g.recipients)
}

// subOrigin says where a queued subproblem came from, which decides the
// flight events its eventual assignment emits.
type subOrigin int

const (
	fromSplit   subOrigin = iota // leftover cofactor: split-accept under its split
	fromRoot                     // a job's whole search space: assign
	fromCrash                    // a lost client's cube: recover under the client-leave
	fromMigrate                  // a cube its client handed back: migrate from that client
)

// backlogSub is one subproblem the master holds until a client goes idle:
// a job's root, a leftover cofactor from an over-producing split, or a cube
// a client lost or handed back. donor and issueEv name the client it came
// from and the flight event (split-issue or client-leave) its assignment
// hangs under.
type backlogSub struct {
	sub     *solver.Subproblem
	origin  subOrigin
	splitID int
	donor   int
	issueEv uint64
	// job owns the queued subproblem.
	job int
}

type masterEvent struct {
	clientID int
	msg      comm.Message
	err      error     // the client is lost: a dropped connection, a DES host failure
	conn     comm.Conn // set for new connections (live shell only)
	// apply, when non-nil, runs a request (submit, cancel, state and job
	// queries, shutdown) on the event loop; its return value ends Run when
	// true. The closure owns its own reply channel.
	apply func() bool
}

// masterJob is one SAT instance moving through the scheduler: its identity
// and lifecycle, leftover cofactors, coverage estimator, clause-dedup
// window and verdict. Who holds its subproblems, and which of them want
// splitting, is read off the client table (see tally), not kept here.
type masterJob struct {
	ID       int
	Name     string
	Priority int // >= 1; idle clients serve higher priorities first
	Formula  *cnf.Formula
	State    JobState
	// Timestamps in the master's clock (wall seconds for the live master,
	// virtual seconds in the DES). FirstAssignAt is when the root
	// subproblem was first handed out — with StartedAt it decomposes the
	// queue-wait SLO from the assignment latency.
	SubmittedAt   float64
	StartedAt     float64
	FirstAssignAt float64
	FinishedAt    float64
	// subBacklog queues the job's root, leftover cofactors and lost
	// clients' cubes.
	subBacklog []backlogSub
	// assigned is set once the root subproblem was queued for handing out.
	assigned bool
	// status and model are the job's verdict (StatusUnknown while running);
	// cause says why a job is done without one (a dropped cofactor, a model
	// that failed Verify).
	status solver.Status
	model  cnf.Assignment
	cause  error
	// seenShared suppresses re-broadcast of this job's already-fanned-out
	// clauses (clauses are sound only within their job's formula).
	seenShared *clauseWindow
	// prog is the job's coverage estimator.
	prog ProgressTracker
}

// Master is GridSAT's control plane: client registration, placement, the
// five-message split exchange, clause relay, job scheduling, migration and
// recovery — one single-threaded state machine stepped by handle. It reads
// time and sends messages only through two seams, so the same value runs
// under two shells: NewMaster + Run (goroutines, comm.Transport, wall
// clock — the deployed master) and RunDistributed (grid.Sim events, virtual
// clock). It has jobs, not a mode: a one-shot run is the service whose only
// job was admitted at construction (see newMaster).
type Master struct {
	cfg MasterConfig
	// now is the shell's clock in seconds (wall since Run started, or
	// virtual); send is its outbox, addressed by client ID. writeBundle
	// takes a frozen postmortem spec off the state machine's hands.
	now         func() float64
	send        func(to int, msg comm.Message)
	writeBundle func(BundleSpec)

	clients map[int]*masterClient
	// order lists client IDs ascending (IDs are issued monotonically), so
	// every walk that sends, logs or allocates is deterministic.
	order       []int
	nextID      int
	nextSplitID int
	// jobs holds every job by ID (terminal ones included, so results stay
	// queryable); jobOrder is submission order.
	jobs     map[int]*masterJob
	jobOrder []int
	// nextJobID issues Submit's job IDs, starting at 1: ID 0 belongs to the
	// job a one-shot master admits at construction.
	nextJobID int
	admission Admission
	// pendingSplits tracks in-flight subproblem transfers by token.
	pendingSplits map[int]*splitGroup
	// sharedDropped counts best-effort ShareClauses messages discarded
	// because a client's outbound queue was full.
	sharedDropped int64
	// shareTo is handleShare's recipient list, reused from batch to batch.
	shareTo []int
	// splits counts completed subproblem transfers, migrations handed-back
	// cubes (§3.4 moves) a new owner acknowledged, shared the clauses
	// fanned out; state reports them.
	splits     int
	migrations int
	shared     int
	result     Result
	// clusterAgg sums every heartbeat delta ever received, independent of
	// the clients map, so totals survive client churn (a departed client's
	// contribution is never lost).
	clusterAgg comm.SolverDeltas

	reg    *obs.Registry
	log    *slog.Logger
	met    masterMetrics
	flight *trace.Flight
	// inTI is the trace metadata of the message currently being handled
	// (zero for untraced messages).
	inTI comm.TraceInfo

	// samples is the ring of sampler ticks, oldest first (see sampleTick);
	// wd is the anomaly watchdog that judges it.
	samples []Sample
	wd      *watchdog
	// bundleSeq numbers postmortem bundles so their directory names are
	// unique and deterministic.
	bundleSeq int

	// Live shell only (nil/zero under the DES): the listener and event
	// queue Run drains, each client's connection and bounded outbound
	// queue, and the introspection server. loops counts the accept, read
	// and write goroutines Run waits for; stopped is closed when Run stops
	// serving, so none of them blocks on the event queue after that.
	listener comm.Listener
	events   chan masterEvent
	links    map[int]*masterLink
	loops    sync.WaitGroup
	stopped  chan struct{}
	started  time.Time
	httpSrv  *http.Server
	httpAddr string
	// draining flips when Shutdown is requested; POST /debug/bundle
	// answers 409 after that (the state it would capture is going away).
	draining atomic.Bool
	// build is the binary identity served by /healthz and the
	// gridsat_build_info gauge.
	build obs.BuildInfo
}

// femit records a flight event stamped with the shell's clock, merging the
// in-flight message's Lamport stamp so this log's timestamps exceed the
// cause's. No-op without a recorder.
func (m *Master) femit(ev trace.FEvent) uint64 {
	if m.flight == nil {
		return 0
	}
	if ev.Lamport == 0 {
		ev.Lamport = m.inTI.Lamport
	}
	ev.VSec = m.now()
	return m.flight.Emit(ev)
}

// femitCube is femit for an event about a subproblem: ev names cube, its
// DIMACS literals from the root separated by spaces, rendered only when a
// recorder is listening.
func (m *Master) femitCube(ev trace.FEvent, cube []cnf.Lit) uint64 {
	if m.flight != nil {
		ev.Cube = strings.Trim(fmt.Sprint(cube), "[]")
	}
	return m.femit(ev)
}

// masterMetrics caches the master's registry handles. The pool gauges and
// the splits, shared and dropped counters are written by publish alone;
// the rest count events where they happen.
type masterMetrics struct {
	splits        *obs.Counter
	shared        *obs.Counter
	sharedDropped *obs.Counter
	shareDedup    *obs.Counter
	heartbeats    *obs.Counter
	rejected      *obs.Counter
	registered    *obs.Gauge
	busy          *obs.Gauge
	reserved      *obs.Gauge
	backlog       *obs.Gauge
	subBacklog    *obs.Gauge
	live          *obs.Gauge
	splitLat      *obs.Histogram
	// Job-lifecycle SLO histograms: queue wait (submit → first client),
	// first assignment (submit → root handed out), solve (start →
	// verdict) and end-to-end turnaround (submit → verdict).
	queueWait   *obs.Histogram
	firstAssign *obs.Histogram
	solveLat    *obs.Histogram
	turnaround  *obs.Histogram
}

func newMasterMetrics(reg *obs.Registry) masterMetrics {
	return masterMetrics{
		splits:        reg.Counter("gridsat_master_splits_total", "completed subproblem transfers"),
		shared:        reg.Counter("gridsat_master_shared_clauses_total", "learned clauses fanned out to peers"),
		sharedDropped: reg.Counter("gridsat_master_shared_dropped_total", "best-effort ShareClauses messages dropped on full client queues"),
		shareDedup:    reg.Counter("gridsat_master_share_dedup_total", "shared clauses suppressed as already seen"),
		heartbeats:    reg.Counter("gridsat_master_heartbeats_total", "StatusReport messages aggregated"),
		rejected:      reg.Counter("gridsat_master_rejected_clients_total", "registrations refused for low memory"),
		registered:    reg.Gauge("gridsat_master_registered_clients", "clients currently registered"),
		busy:          reg.Gauge("gridsat_master_busy_clients", "clients currently holding subproblems"),
		reserved:      reg.Gauge("gridsat_master_reserved_clients", "clients reserved for in-flight transfers"),
		backlog:       reg.Gauge("gridsat_master_split_backlog", "queued unserved split requests"),
		subBacklog:    reg.Gauge("gridsat_master_sub_backlog", "leftover split cofactors waiting for an idle client"),
		live:          reg.Gauge("gridsat_master_outstanding_subproblems", "live subproblems (busy + in flight)"),
		splitLat:      reg.Histogram("gridsat_master_split_latency_seconds", "SplitAssign to recipient SplitDone", nil),
		queueWait:     reg.Histogram("gridsat_job_queue_wait_seconds", "job submission to first client allocation", nil),
		firstAssign:   reg.Histogram("gridsat_job_first_assign_seconds", "job submission to root subproblem handed out", nil),
		solveLat:      reg.Histogram("gridsat_job_solve_seconds", "job start to verdict", nil),
		turnaround:    reg.Histogram("gridsat_job_turnaround_seconds", "job submission to verdict (end-to-end)", nil),
	}
}

// newMaster builds the control plane alone — no listener, goroutine or
// HTTP server — wired to the given shell seams (all nil: the live shell's,
// which are methods of the value built here).
func newMaster(cfg MasterConfig, now func() float64, send func(int, comm.Message), writeBundle func(BundleSpec)) *Master {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if cfg.Flight != nil {
		log = slog.New(lamportHandler{log.Handler(), cfg.Flight})
	}
	m := &Master{
		cfg:           cfg,
		now:           now,
		send:          send,
		writeBundle:   writeBundle,
		clients:       map[int]*masterClient{},
		jobs:          map[int]*masterJob{},
		admission:     cfg.Admission,
		pendingSplits: map[int]*splitGroup{},
		reg:           reg,
		log:           log.With("component", "master"),
		met:           newMasterMetrics(reg),
		flight:        cfg.Flight,
		wd:            newWatchdog(),
		result:        Result{Threads: 1}, // widened by portfolio heartbeats
	}
	if now == nil {
		m.now, m.send, m.writeBundle = m.wallNow, m.enqueue, m.writeBundleAsync
	}
	if cfg.Formula != nil {
		// A one-shot run is a service with one job, admitted here unchecked
		// under the ID Submit never issues. 0 is also what the wire tags, the
		// flight log's Job field and masterClient.job read when unset, so the
		// run's frames and events carry no job — and handleShare, which
		// relays to the clients whose job is the sender's, reaches clients of
		// a one-shot master that have not worked yet (they drop the batch).
		// des_msgs/des_bytes and every virtual-time table pin that traffic.
		m.admit(0, "", cfg.Formula, 1)
	}
	return m
}

// jobOf resolves the job a client's messages belong to (nil once the job
// has been forgotten — terminal jobs are kept, so nil means "never
// existed", which only unroutable traffic produces). Event-loop only.
func (m *Master) jobOf(c *masterClient) *masterJob {
	return m.jobs[c.job]
}

// timeOut ends an undecided run: verdict UNKNOWN, result frozen. It ends
// the run, not its jobs: nothing is finished, stopped or bundled.
func (m *Master) timeOut() {
	m.femit(trace.FEvent{Kind: trace.FEvVerdict, Detail: "UNKNOWN"})
	m.finishResult()
}

// finishResult freezes the Result: what a one-shot run reports of its job
// 0 — verdict and model, with the end time stamped here when the run ended
// before the job did — and the ClusterState the run ends in, each SAT job's
// row carrying its model, as on GET /jobs/{id}/result.
func (m *Master) finishResult() {
	if j0 := m.jobs[0]; j0 != nil {
		m.result.Status, m.result.Model = j0.status, j0.model
		if j0.FinishedAt == 0 {
			j0.FinishedAt = m.now()
			j0.observeEnd(&m.met)
		}
	}
	st := m.state()
	m.publish(st)
	for i := range st.Jobs {
		st.Jobs[i].Model = m.jobs[st.Jobs[i].ID].modelLits()
	}
	m.result.State = st
}

// connect admits a new, not yet registered client and issues its ID; the
// shell routes that ID's traffic from then on.
func (m *Master) connect() int {
	m.nextID++
	m.clients[m.nextID] = &masterClient{id: m.nextID, baseJob: -1}
	m.order = append(m.order, m.nextID)
	return m.nextID
}

// forget drops a client from the pool.
func (m *Master) forget(id int) {
	delete(m.clients, id)
	if i := slices.Index(m.order, id); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}

// handle steps the state machine by one event. done ends the run: Shutdown
// was asked for, or this is a one-shot master and its job 0 has ended — with
// err naming the cause when it ended without a verdict.
func (m *Master) handle(ev masterEvent) (done bool, err error) {
	switch {
	case ev.apply != nil: // submit/cancel/query/shutdown
		done = ev.apply()
	case ev.conn != nil: // new live connection: wait for its Register
		m.attach(ev.conn)
		return false, nil
	default:
		m.dispatch(ev)
	}
	if j0 := m.jobs[0]; j0 != nil && !j0.State.Active() {
		return true, j0.cause
	}
	return done, nil
}

// dispatch routes one client event — a message, or the loss of the client —
// to its handler.
func (m *Master) dispatch(ev masterEvent) {
	c := m.clients[ev.clientID]
	if c == nil {
		return
	}
	if ev.err != nil {
		m.inTI = comm.TraceInfo{}
		m.clientLost(c)
		return
	}
	// Strip the trace envelope (if any) so the dispatch below sees the
	// payload; the metadata feeds femit's Lamport merge and Parent links.
	unwrapped, ti := comm.Unwrap(ev.msg)
	m.inTI = ti
	switch msg := unwrapped.(type) {
	case comm.Register:
		m.handleRegister(c, msg)
	case comm.SplitRequest:
		m.handleSplitRequest(c, msg)
	case comm.SplitDone:
		m.handleSplitDone(c, msg)
	case comm.ShareClauses:
		m.handleShare(c, msg)
	case comm.Solved:
		m.handleSolved(c, msg)
	case comm.Stopped:
		m.handleStopped(c, msg)
	case comm.StatusReport:
		m.handleStatusReport(c, msg)
	}
}

// handleStatusReport folds a heartbeat into the live cluster view: the
// latest gauges replace, the deltas accumulate — into the per-client
// aggregate AND the cluster-lifetime totals, so departed clients' work is
// never subtracted from the cluster view.
func (m *Master) handleStatusReport(c *masterClient, msg comm.StatusReport) {
	m.met.heartbeats.Inc()
	m.femit(trace.FEvent{Kind: trace.FEvHeartbeat, Client: c.id,
		N: msg.Deltas.Propagations, Parent: m.inTI.Parent})
	if n := msg.Deltas.ImportedUseful; n > 0 {
		m.femit(trace.FEvent{Kind: trace.FEvImportUse, Client: c.id, N: n,
			Parent: m.inTI.Parent})
	}
	c.usedMem = msg.MemBytes
	c.dbLearnts = msg.Learnts
	c.workers = msg.Workers
	if len(msg.Workers) > m.result.Threads {
		m.result.Threads = len(msg.Workers)
	}
	c.agg.Add(msg.Deltas)
	m.clusterAgg.Add(msg.Deltas)
	// Conflict-rate EWMA for utilization and straggler detection.
	c.conf.update(float64(msg.Deltas.Conflicts), m.now())
	m.log.Debug("heartbeat", "client", c.id, "mem", msg.MemBytes,
		"learnts", msg.Learnts, "conflicts+", msg.Deltas.Conflicts)
}

func (m *Master) handleRegister(c *masterClient, msg comm.Register) {
	if msg.FreeMemBytes < m.cfg.MinMemBytes {
		// Paper §3.3: clients on low-memory resources terminate; they
		// would split constantly and add only communication overhead.
		m.met.rejected.Inc()
		m.log.Warn("registration rejected", "host", msg.HostName,
			"free_mem", msg.FreeMemBytes, "min_mem", m.cfg.MinMemBytes)
		m.send(c.id, comm.RegisterAck{Rejected: true,
			Reason: fmt.Sprintf("free memory %d below minimum %d", msg.FreeMemBytes, m.cfg.MinMemBytes)})
		m.forget(c.id)
		return
	}
	c.addr = msg.Addr
	c.hostName = msg.HostName
	c.freeMem = msg.FreeMemBytes
	c.rank = msg.SpeedHint * float64(msg.FreeMemBytes>>20)
	c.fanout = msg.Fanout
	m.log.Info("client registered", "id", c.id, "host", msg.HostName,
		"addr", msg.Addr, "free_mem", msg.FreeMemBytes)
	m.femit(trace.FEvent{Kind: trace.FEvClientJoin, Client: c.id,
		Detail: msg.HostName, Parent: m.inTI.Parent})
	m.send(c.id, comm.RegisterAck{ClientID: c.id})
	// The formula of the job first in serving order rides with the ack: it
	// is the job a fresh client will most likely serve (with one job: every
	// client has the formula before its first split, as in the paper). Any
	// other job's goes out when the client is first picked for it.
	if jobs := m.servingOrder(); len(jobs) > 0 {
		m.ensureBase(c, jobs[0])
	}
	// A fresh idle client may serve a backlog.
	m.serveBacklog()
}

// ensureBase sends a job's base formula to a client whose cache holds
// another's (or none); called right before the client is reserved or
// assigned for the job (and at registration, for the job first in serving
// order).
func (m *Master) ensureBase(c *masterClient, j *masterJob) {
	if c.baseJob == j.ID {
		return
	}
	c.baseJob = j.ID
	m.send(c.id, comm.BaseProblem{Formula: j.Formula, Job: j.ID})
}

// markStarted moves a job to running on its first client assignment,
// stamping StartedAt, the coverage rate's first interval and the lifecycle
// event.
func (m *Master) markStarted(j *masterJob) {
	if j.State != JobQueued {
		return
	}
	j.StartedAt = m.now()
	j.prog.cov.at = j.StartedAt
	j.State = JobRunning
	m.met.queueWait.Observe(j.StartedAt - j.SubmittedAt)
	m.femit(trace.FEvent{Kind: trace.FEvJobStart, Job: j.ID})
}

// noteForecast replaces a client's placement rank and free-memory
// forecast with fresher data from the shell's resource monitor (the DES
// feeds NWS forecasts at every monitor tick; the live shell has only the
// client's own Register and never calls this).
func (m *Master) noteForecast(id int, rank float64, freeMem int64) {
	if c := m.clients[id]; c != nil {
		c.rank, c.freeMem = rank, freeMem
	}
}

// assignRoot queues a job's whole search space as its first backlog entry
// ("The first client to register with the master is sent the entire
// problem" — with ranking, the best-ranked registrant); serveSubBacklog
// hands it out like any other master-held subproblem, so a bounced root
// is requeued, not lost.
func (m *Master) assignRoot(j *masterJob) {
	j.assigned = true
	j.subBacklog = append(j.subBacklog, backlogSub{origin: fromRoot, job: j.ID,
		sub: &solver.Subproblem{NumVars: j.Formula.NumVars}})
}

func (m *Master) handleSplitRequest(c *masterClient, msg comm.SplitRequest) {
	j := m.jobOf(c)
	if j == nil || c.state != busy || c.splitAt > 0 {
		return // idle clients cannot split; duplicates are ignored
	}
	c.splitAt = m.now()
	c.splitReqEv = m.femit(trace.FEvent{Kind: trace.FEvSplitRequest,
		Client: c.id, Job: j.ID, Detail: msg.Why.String(), Parent: m.inTI.Parent})
	m.serveBacklog()
}

// servingOrder lists the active jobs in the order idle clients serve them:
// higher priority first, then submission order. Event-loop only.
func (m *Master) servingOrder() []*masterJob {
	var jobs []*masterJob
	for _, id := range m.jobOrder {
		if j := m.jobs[id]; j.State.Active() {
			jobs = append(jobs, j)
		}
	}
	slices.SortStableFunc(jobs, func(a, b *masterJob) int { return b.Priority - a.Priority })
	return jobs
}

// serveBacklog places queued work on idle resources, one job at a time in
// serving order: each job takes the idle clients its queued work can use
// before the next job sees any, and no client is taken off running work.
// A job starts from its root once a client is idle for it. With one job
// this is the paper's flow: idle resources absorb its splits.
func (m *Master) serveBacklog() {
	registered := m.tally().registered
	for _, j := range m.servingOrder() {
		if !j.assigned && registered >= m.cfg.ExpectedClients && len(m.idleCandidates()) > 0 {
			m.assignRoot(j)
		}
		m.serveSubBacklog(j)
		m.serveSplitBacklog(j)
	}
}

// serveSplitBacklog serves a job's split requests, read off the client
// table: the longest-running requester first — "giving more resources to
// those parts of the search space that take the longest" (§3.4) — that is
// the earliest assignment, then the earliest request, then the lowest ID.
// A request reserves up to its donor's fanout in idle recipients, so a
// dilemma donor can shed all its cofactors in one exchange.
func (m *Master) serveSplitBacklog(j *masterJob) {
	for {
		var donor *masterClient
		for _, id := range m.order {
			c := m.clients[id]
			if c.job != j.ID || !c.wantsSplit() {
				continue
			}
			if donor == nil || c.assignedAt < donor.assignedAt ||
				(c.assignedAt == donor.assignedAt && c.splitAt < donor.splitAt) {
				donor = c
			}
		}
		if donor == nil {
			return
		}
		var peers []comm.SplitPeer
		cands := m.idleCandidates()
		for len(peers) < max(1, donor.fanout) {
			target, ok := PickSplitTarget(cands, m.cfg.MinMemBytes)
			if !ok {
				break
			}
			r := m.clients[target.ID]
			r.state = reserved
			r.job = j.ID
			m.ensureBase(r, j)
			peers = append(peers, comm.SplitPeer{ID: r.id, Addr: r.addr})
			kept := cands[:0]
			for _, c := range cands {
				if c.ID != target.ID {
					kept = append(kept, c)
				}
			}
			cands = kept
		}
		if len(peers) == 0 {
			return // nothing idle; keep waiting
		}
		donor.splitAt = 0
		m.nextSplitID++
		g := &splitGroup{donor: donor.id, job: j.ID, settled: map[int]bool{},
			assignedAt: m.now()}
		for _, p := range peers {
			g.recipients = append(g.recipients, p.ID)
		}
		g.issueEv = m.femit(trace.FEvent{Kind: trace.FEvSplitIssue, Client: donor.id,
			Peer: peers[0].ID, N: int64(len(peers)), SplitID: m.nextSplitID,
			Parent: donor.splitReqEv})
		m.pendingSplits[m.nextSplitID] = g
		m.send(donor.id, comm.SplitAssign{SplitID: m.nextSplitID, Peers: peers})
	}
}

// serveSubBacklog hands a job's master-held subproblems (its root,
// leftover split products, lost clients' cubes) to idle clients —
// cheaper than asking a busy client to split. A queued subproblem is live
// search space where it lies; assignment moves it from the queue to the
// recipient, busy from the moment it is sent.
func (m *Master) serveSubBacklog(j *masterJob) {
	for len(j.subBacklog) > 0 {
		target, ok := PickSplitTarget(m.idleCandidates(), m.cfg.MinMemBytes)
		if !ok {
			return
		}
		entry := j.subBacklog[0]
		j.subBacklog = j.subBacklog[1:]
		c := m.clients[target.ID]
		m.ensureBase(c, j)
		c.unacked = &entry
		m.send(c.id, comm.SplitPayload{SplitID: entry.splitID,
			Job: j.ID, Subs: []*solver.Subproblem{entry.sub}})
		c.state = busy
		c.job = j.ID
		c.assignment = assignment{assignedAt: m.now(), cube: entry.sub.Cube}
		m.markStarted(j)
		if entry.origin == fromRoot && j.FirstAssignAt == 0 {
			j.FirstAssignAt = m.now()
			m.met.firstAssign.Observe(j.FirstAssignAt - j.SubmittedAt)
		}
		m.result.MaxClients = max(m.result.MaxClients, m.tally().busy)
	}
}

func (m *Master) handleSplitDone(c *masterClient, msg comm.SplitDone) {
	// A master-held subproblem acks with the split ID it descended from
	// (0 for roots and lost clients' cubes).
	if entry := c.unacked; entry != nil && entry.splitID == msg.SplitID {
		c.unacked = nil
		j := m.jobs[entry.job]
		switch {
		case !j.State.Active():
			// The job ended while the payload travelled. The client has been
			// busy since the send, so it is being stopped and its ack frees
			// it; whatever it bounced ended with the job.
			return
		case !msg.OK:
			// The assignment bounced; requeue the subproblem — it is still
			// live search space. The client is idle again: a stop sent behind
			// the payload finds it idle, and its ack is stale.
			c.state = idle
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: c.id,
				Peer: entry.donor, SplitID: entry.splitID, Parent: entry.issueEv, Detail: msg.Err})
			j.subBacklog = append(j.subBacklog, *entry)
			m.serveBacklog()
		case entry.origin == fromRoot:
			m.femitCube(trace.FEvent{Kind: trace.FEvAssign, Client: c.id, Job: entry.job}, entry.sub.Cube)
		case entry.origin == fromCrash:
			m.femitCube(trace.FEvent{Kind: trace.FEvRecover, Client: c.id,
				Job: entry.job, Parent: entry.issueEv}, entry.sub.Cube)
		case entry.origin == fromMigrate:
			m.migrations++
			m.femitCube(trace.FEvent{Kind: trace.FEvMigrate, Client: entry.donor,
				Peer: c.id, Job: entry.job}, entry.sub.Cube)
		default:
			m.splits++
			m.femitCube(trace.FEvent{Kind: trace.FEvSplitAccept, Client: c.id, Peer: entry.donor,
				Job: entry.job, SplitID: entry.splitID, Parent: entry.issueEv}, entry.sub.Cube)
		}
		m.checkExhausted(j)
		return
	}
	g, ok := m.pendingSplits[msg.SplitID]
	if !ok {
		// A settled leg — or an accept of a lost donor's split whose payload
		// came after clientLost's stop: its cube is requeued, so park it too.
		if msg.OK && c.state == idle {
			m.stop(c)
		}
		return
	}
	// A transfer outlives its job: its legs still report, and a recipient
	// is not free while a payload may be on its way to it.
	j := m.jobs[g.job]
	live := j.State.Active()
	var lost error
	if c.id == g.donor { // Figure 3, message (5)
		g.donorDone = true
		used := 0
		if msg.OK {
			used = min(msg.Used, len(g.recipients))
			c.cube, g.served = msg.Cube, msg.Served
			m.femitCube(trace.FEvent{Kind: trace.FEvSplitDone, Client: g.donor, Job: g.job,
				SplitID: msg.SplitID, N: int64(len(msg.Leftover)), Parent: g.issueEv}, msg.Cube)
		} else {
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: g.donor,
				SplitID: msg.SplitID, Parent: g.issueEv, Detail: msg.Err})
		}
		// Peers are served in assignment order, so everyone beyond the Used
		// prefix will never get a payload: release their reservations. What
		// they would have searched is the donor's still, or rides back below.
		for _, id := range g.recipients[used:] {
			if g.settled[id] {
				continue
			}
			g.settled[id] = true
			if r := m.clients[id]; r != nil {
				r.state = idle
			}
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: id,
				Peer: g.donor, SplitID: msg.SplitID, Parent: g.issueEv, Detail: "released unused"})
		}
		m.requeueShipped(msg.SplitID, g)
	} else { // Figure 3, message (4): one recipient's leg concluded
		if !slices.Contains(g.recipients, c.id) || g.settled[c.id] {
			return
		}
		g.settled[c.id] = true
		switch {
		case msg.OK && !live:
			// The recipient started a subproblem of a job that has ended.
			c.state = busy
			m.stop(c)
		case msg.OK:
			c.state = busy
			c.assignment = assignment{assignedAt: m.now(), cube: msg.Cube}
			if !g.donorDone {
				g.made = append(g.made, msg.Cube)
			}
			m.splits++
			m.met.splitLat.Observe(m.now() - g.assignedAt)
			m.femitCube(trace.FEvent{Kind: trace.FEvSplitAccept, Client: c.id, Peer: g.donor,
				Job: g.job, SplitID: msg.SplitID, Parent: g.issueEv}, msg.Cube)
			m.result.MaxClients = max(m.result.MaxClients, m.tally().busy)
		default:
			c.state = idle
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: c.id,
				Peer: g.donor, SplitID: msg.SplitID, Parent: g.issueEv, Detail: msg.Err})
			if len(msg.Leftover) == 0 && live {
				// A recipient answers only a payload it received, and this one
				// did not hand it back: the cofactor is gone, unsearched.
				lost = fmt.Errorf("core: client %d dropped its cofactor of split %d: %s", c.id, msg.SplitID, msg.Err)
			}
		}
	}
	if g.done() {
		delete(m.pendingSplits, msg.SplitID)
	}
	if lost != nil {
		m.finishJob(j, solver.StatusUnknown, nil, lost)
		return
	}
	// What rides back is live search space again, the master's to hand out:
	// the donor's cofactors beyond the peers it served, or the payload a
	// recipient could not start. A dead job's is dropped with it.
	if live {
		for _, sub := range msg.Leftover {
			j.subBacklog = append(j.subBacklog, backlogSub{sub: sub,
				splitID: msg.SplitID, donor: g.donor, issueEv: g.issueEv, job: g.job})
			if !g.donorDone {
				g.made = append(g.made, sub.Cube)
			}
		}
	}
	m.serveBacklog()
	m.checkExhausted(j)
}

func (m *Master) handleShare(c *masterClient, msg comm.ShareClauses) {
	// Learned clauses are sound only within the formula they were derived
	// from, so dedup and fan-out are strictly per job.
	j := m.jobOf(c)
	if j == nil || !j.State.Active() {
		return
	}
	// Recipients first: a job held by the sender alone (every job too short
	// to split) has none, and then nothing is copied or encoded. The dedup
	// window, the counters and the relay event do not depend on who listens.
	to := m.shareTo[:0]
	for _, id := range m.order {
		other := m.clients[id]
		if other.id == c.id || other.addr == "" || other.job != j.ID {
			continue
		}
		to = append(to, other.id)
	}
	m.shareTo = to
	// Copy on receipt: over the in-process transport the sender may still
	// hold (and mutate) the slices it sent, so the fan-out must never
	// alias them. Duplicate suppression is by bounded fingerprint window;
	// a rare collision or eviction only costs one best-effort share.
	var fresh []cnf.Clause
	n := 0
	for _, cl := range msg.Clauses {
		if !j.seenShared.Add(cl.Fingerprint()) {
			m.met.shareDedup.Inc()
			continue
		}
		n++
		if len(to) > 0 {
			fresh = append(fresh, cl.Clone())
		}
	}
	if n == 0 {
		return
	}
	m.shared += n
	m.femit(trace.FEvent{Kind: trace.FEvShareRelay, Client: c.id, Job: j.ID,
		N: int64(n), Parent: m.inTI.Parent})
	if len(to) == 0 {
		return
	}
	// Encode the batch once; every peer's writeLoop sends the same frame.
	var out comm.Message = comm.ShareClauses{From: c.id, Job: j.ID, Clauses: fresh}
	if e, err := comm.EncodeMessage(out); err == nil {
		out = e
	}
	for _, id := range to {
		m.send(id, out)
	}
}

func (m *Master) handleSolved(c *masterClient, msg comm.Solved) {
	if c.unacked != nil || !c.holds() || msg.Job != c.job {
		return // idle already, or a verdict on what the master does not hold it to
	}
	j := m.jobOf(c)
	if j == nil {
		return
	}
	if msg.Status != solver.StatusSAT && msg.Status != solver.StatusUNSAT {
		m.handBack(c, fromMigrate, 0) // no verdict: the cube goes out again
	}
	c.state = idle // a verdict beat any in-flight stop
	if !j.State.Active() {
		// The job ended (cancelled, or decided by a peer) while this client
		// was still solving; the stale verdict just frees the client.
		m.serveBacklog()
		return
	}
	m.log.Info("subproblem solved", "client", c.id, "job", j.ID,
		"status", msg.Status, "outstanding", m.tally().outstanding(j))
	switch msg.Status {
	case solver.StatusSAT:
		// Verify the assignment before declaring success (paper §3.4).
		if err := j.Formula.Verify(msg.Model); err != nil {
			// No sound verdict exists; the job ends, the service goes on.
			m.log.Warn("invalid model", "client", c.id, "job", j.ID, "err", err)
			m.finishJob(j, solver.StatusUnknown, nil,
				fmt.Errorf("core: client %d reported an invalid model: %w", c.id, err))
			return
		}
		m.femitCube(trace.FEvent{Kind: trace.FEvVerdict, Client: c.id, Worker: msg.Worker,
			Job: j.ID, Detail: "SAT", Parent: m.inTI.Parent}, c.cube)
		m.finishJob(j, solver.StatusSAT, msg.Model, nil)
		return
	case solver.StatusUNSAT:
		// A refuted cube of length d retires 2^-d of the root search space.
		units := j.prog.CloseSubproblem(len(c.cube), m.now())
		m.femitCube(trace.FEvent{Kind: trace.FEvSubUNSAT, Client: c.id, Worker: msg.Worker,
			Job: j.ID, N: int64(units), Parent: m.inTI.Parent}, c.cube)
	}
	// If nothing else is live the job is unsatisfiable; else the client is
	// idle and may take queued work.
	if !m.checkExhausted(j) {
		m.serveBacklog()
	}
}

// checkExhausted ends a job as unsatisfiable, and reports that it did, when
// its problem was handed out and no subproblem of it is live anywhere — "all
// the clients are idle, which means that the instance is unsatisfiable"
// (§3.4), read off the same table that says who holds the job. Checked
// after every event that can take a subproblem away from a client or the
// queue, including failed split transfers.
func (m *Master) checkExhausted(j *masterJob) bool {
	if j == nil || !j.State.Active() || !j.assigned || m.tally().outstanding(j) != 0 {
		return false
	}
	m.femit(trace.FEvent{Kind: trace.FEvVerdict, Job: j.ID, Detail: "UNSAT"})
	m.finishJob(j, solver.StatusUNSAT, nil, nil)
	return true
}

// handBack requeues at the head of the backlog what client c holds of a
// live job: an unacknowledged assignment as it was, else its cubes
// (holding), for the next idle client to restart from the base formula
// alone. The cubes go out as origin, from c, under the flight event issueEv.
func (m *Master) handBack(c *masterClient, origin subOrigin, issueEv uint64) {
	pending := c.unacked
	c.unacked = nil
	j := m.jobOf(c)
	if j == nil || !j.State.Active() {
		return
	}
	var requeue []backlogSub
	if pending != nil {
		requeue = []backlogSub{*pending}
	} else {
		for _, cube := range m.holding(c) {
			requeue = append(requeue, backlogSub{sub: &solver.Subproblem{NumVars: j.Formula.NumVars,
				Assumptions: cube, Cube: cube}, origin: origin, donor: c.id, issueEv: issueEv, job: j.ID})
		}
	}
	j.subBacklog = append(requeue, j.subBacklog...)
}

// clientLost hands back what a lost client held (handBack). A lost
// recipient's cofactor goes back once the donor says it shipped it; a donor
// lost before its SplitDone may have shipped some, so its unsettled
// recipients are stopped, parked until they acknowledge.
func (m *Master) clientLost(c *masterClient) {
	m.log.Warn("client lost", "client", c.id, "host", c.hostName, "held", c.state != idle, "job", c.job)
	leaveEv := m.femit(trace.FEvent{Kind: trace.FEvClientLeave, Client: c.id, Detail: c.hostName})
	m.handBack(c, fromCrash, leaveEv)
	m.forget(c.id)
	for _, splitID := range m.sortedSplitIDs() {
		g := m.pendingSplits[splitID]
		switch {
		case g.donor == c.id && !g.donorDone:
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: g.donor,
				Peer: g.recipients[0], SplitID: splitID, Parent: g.issueEv, Detail: "client lost"})
			for _, rid := range g.recipients {
				if r := m.clients[rid]; r != nil && !g.settled[rid] {
					m.stop(r)
				}
			}
			delete(m.pendingSplits, splitID)
		case !g.settled[c.id] && slices.Contains(g.recipients, c.id):
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: c.id, Peer: g.donor,
				SplitID: splitID, Parent: g.issueEv, Detail: "client lost"})
			if g.donorDone { // else its SplitDone settles the leg
				m.requeueShipped(splitID, g)
			}
			if g.done() {
				delete(m.pendingSplits, splitID)
			}
		}
	}
	m.serveBacklog()
	for _, id := range m.jobOrder {
		m.checkExhausted(m.jobs[id])
	}
}

// requeueShipped settles g's legs whose recipients are gone, requeueing
// the cofactor the donor says it shipped each as a leftover of the split:
// its cube is all it assumes.
func (m *Master) requeueShipped(splitID int, g *splitGroup) {
	j := m.jobs[g.job]
	for i, id := range g.recipients[:min(len(g.served), len(g.recipients))] {
		if m.clients[id] == nil && !g.settled[id] {
			g.settled[id] = true
			if cube := g.served[i]; j.State.Active() {
				j.subBacklog = append(j.subBacklog, backlogSub{sub: &solver.Subproblem{NumVars: j.Formula.NumVars,
					Assumptions: cube, Cube: cube}, splitID: splitID, donor: g.donor, issueEv: g.issueEv, job: g.job})
			}
		}
	}
}

// holding lists the cubes client c holds: an idle one none, a donor
// awaiting its SplitDone its cube less the legs counted elsewhere, any
// other its cube.
func (m *Master) holding(c *masterClient) [][]cnf.Lit {
	if !c.holds() {
		return nil
	}
	var made [][]cnf.Lit
	for _, g := range m.donating(c) {
		made = append(made, g.made...)
	}
	return rest(c.cube, made)
}

// rest partitions what is left of cube pre once the cubes of made, each
// extending it, are taken out. Cubes of one split tree nest or contradict;
// m out of a q it extends leaves m's prefixes past q, last literal negated.
func rest(pre []cnf.Lit, made [][]cnf.Lit) [][]cnf.Lit {
	out := [][]cnf.Lit{pre}
	for _, m := range made {
		var next [][]cnf.Lit
		for _, q := range out {
			switch {
			case len(m) >= len(q) && slices.Equal(m[:len(q)], q):
				for i := len(q); i < len(m); i++ {
					next = append(next, append(slices.Clone(m[:i]), m[i].Not()))
				}
			case !(len(q) > len(m) && slices.Equal(q[:len(m)], m)):
				next = append(next, q) // contradicts m
			}
		}
		out = next
	}
	return out
}

// donating lists, in split-ID order, the splits c donates to whose
// SplitDone is still to come.
func (m *Master) donating(c *masterClient) []*splitGroup {
	var out []*splitGroup
	for _, splitID := range m.sortedSplitIDs() {
		if g := m.pendingSplits[splitID]; g.donor == c.id && !g.donorDone {
			out = append(out, g)
		}
	}
	return out
}

// sortedSplitIDs lists the in-flight transfer tokens ascending, so walks
// that emit or release stay deterministic.
func (m *Master) sortedSplitIDs() []int {
	return slices.Sorted(maps.Keys(m.pendingSplits))
}

// maybeMigrate is the paper's §3.4 migration decision: when the best idle
// client outranks the weakest busy one by factor — Blue Horizon nodes just
// joined, a cluster freed up — the weakest's whole subproblem moves there
// instead of being split: its cube goes to the backlog's head for the
// best-ranked idle client, and it is stopped, parked until its ack so it
// cannot take the cube back. Candidates have held their subproblem for
// minHeld seconds and await no SplitDone (which would requeue legs the cube
// covers). The shell calls this after refreshing forecasts (noteForecast);
// factor <= 0 disables migration.
func (m *Master) maybeMigrate(factor, minHeld float64) {
	if factor <= 0 {
		return
	}
	target, ok := PickSplitTarget(m.idleCandidates(), m.cfg.MinMemBytes)
	if !ok {
		return
	}
	var weakest *masterClient
	for _, id := range m.order {
		c := m.clients[id]
		if c.state != busy || m.now()-c.assignedAt < minHeld || len(m.donating(c)) > 0 {
			continue
		}
		if weakest == nil || c.rank < weakest.rank {
			weakest = c
		}
	}
	if weakest != nil && target.Rank >= factor*weakest.rank {
		m.handBack(weakest, fromMigrate, 0)
		weakest.state = idle // the backlog holds its cube now
		m.stop(weakest)
		m.serveBacklog()
	}
}

func (m *Master) idleCandidates() []Candidate {
	var out []Candidate
	for _, id := range m.order {
		c := m.clients[id]
		if c.state != idle || c.addr == "" {
			continue
		}
		out = append(out, Candidate{ID: c.id, Rank: c.rank, MemBytes: c.freeMem})
	}
	return out
}
