package core

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/obs"
	"gridsat/internal/obs/history"
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
	// Shutdown; jobs arrive through Submit (or the HTTP API — see Service).
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
	// nil allocates a private registry (reachable via Metrics()).
	Metrics *obs.Registry
	// Logger receives structured master events; nil discards them.
	Logger *obs.Logger
	// MetricsAddr, when non-empty, serves live HTTP introspection on
	// that address (":0" picks a port — see MetricsAddr()): /metrics is
	// Prometheus text, /status (and /progress) the JSON ClusterState,
	// and /debug/pprof is the Go profiler.
	MetricsAddr string
	// Flight, when non-nil, records the master's control-plane events
	// (joins, splits, relays, verdict) as a causal flight log. In-process
	// jobs share one recorder between master and clients, so the Parent
	// IDs carried in traced messages resolve within the same log; the
	// introspection server additionally exposes /trace, /trace.json (Chrome
	// trace-event format) and /tree (split lineage).
	Flight *trace.Flight
	// SplitStrategy names the split engine clients run ("first-decision",
	// "dilemma", "dilemma-veto"; "" = first-decision). The master only uses
	// its fanout: a 2^k dilemma strategy can hand cofactors to up to 2^k-1
	// idle peers per split, so that many recipients are reserved per
	// assignment when available.
	SplitStrategy string
	// SchedPolicy names the policy that moves clients between concurrently
	// running jobs (malleable allocation, with checkpoint/preemption):
	// "fifo" (default), "fair-share" or "priority". See ParseSchedPolicy.
	SchedPolicy string
	// Admission bounds what Submit accepts (active-job cap and formula
	// memory budget); the zero value derives the cap from the registered
	// client count.
	Admission Admission
	// RebalancePeriod is how often Run reviews the allocation and preempts
	// over-allocated jobs (0 = 250ms; the DES reviews at its monitor ticks
	// instead).
	RebalancePeriod time.Duration
	// ExtraEndpoints adds handlers to the introspection server (the serve
	// API installs its /jobs routes this way). Ignored without MetricsAddr.
	ExtraEndpoints []obs.Endpoint
	// HistoryPeriod is the time-series sampler cadence: every period the
	// master folds the registry plus per-job/per-client series into the
	// history store (GET /history) and feeds the anomaly watchdog.
	// 0 = 1s; negative disables sampling (and with it the watchdog).
	HistoryPeriod time.Duration
	// Watchdog overrides the anomaly-rule thresholds (see
	// DefaultWatchdogConfig, which applies when nil — the watchdog is on
	// whenever the sampler is).
	Watchdog *WatchdogConfig
	// BundleDir, when non-empty, enables postmortem black-box bundles:
	// on job failure/cancellation, a fired watchdog rule, or POST
	// /debug/bundle, a self-contained diagnosis directory is written
	// under it (see WriteBundle).
	BundleDir string
}

func (c *MasterConfig) withDefaults() MasterConfig {
	out := *c
	if out.RebalancePeriod <= 0 {
		out.RebalancePeriod = 250 * time.Millisecond
	}
	if out.HistoryPeriod == 0 {
		out.HistoryPeriod = time.Second
	}
	return out
}

// Result is the outcome of a distributed run.
type Result struct {
	Status solver.Status
	Model  cnf.Assignment
	Wall   time.Duration
	// MaxClients is the peak number of simultaneously busy clients —
	// the last column of the paper's Table 1.
	MaxClients int
	// Splits counts completed subproblem transfers; Migrations counts
	// whole-subproblem moves to better resources (§3.4).
	Splits     int
	Migrations int
	// SharedClauses counts clauses the master fanned out.
	SharedClauses int
	// Threads is the widest in-host portfolio observed across the run's
	// clients (1 when every client ran single-threaded).
	Threads int
	// Clients holds the end-of-run per-client rows of the final
	// ClusterState, sorted by ID.
	Clients []ClientState
	// Comm is the wire-traffic summary, filled by runners that instrument
	// their transport (Solve, cmd/gridsat); zero when uninstrumented.
	Comm comm.Totals
	// Latency decomposes job 0's lifecycle SLOs (nil without one; every
	// job carries its own in its JobSnapshot).
	Latency *JobLatency
}

// JobLatency is the lifecycle SLO decomposition of one job, in the
// owning runtime's clock seconds.
type JobLatency struct {
	// QueueWaitSec is submission to first client allocation;
	// FirstAssignSec is submission to the root subproblem going out.
	QueueWaitSec   float64 `json:"queue_wait_sec"`
	FirstAssignSec float64 `json:"first_assign_sec"`
	// SolveSec is start to verdict; TurnaroundSec is end to end.
	SolveSec      float64 `json:"solve_sec"`
	TurnaroundSec float64 `json:"turnaround_sec"`
}

// jobLatency derives the SLO decomposition from a job's timestamps.
func jobLatency(j *Job) *JobLatency {
	l := &JobLatency{}
	if j.StartedAt > 0 {
		l.QueueWaitSec = j.StartedAt - j.SubmittedAt
	}
	if j.FirstAssignAt > 0 {
		l.FirstAssignSec = j.FirstAssignAt - j.SubmittedAt
	}
	if j.FinishedAt > 0 {
		if j.StartedAt > 0 {
			l.SolveSec = j.FinishedAt - j.StartedAt
		}
		l.TurnaroundSec = j.FinishedAt - j.SubmittedAt
	}
	return l
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
	rank         float64
	freeMem      int64
	usedMem      int64
	busy         bool
	reserved     bool    // chosen as split recipient; payload in flight
	assignedAt   float64 // master clock seconds
	pendingSplit bool    // has an unserved split request
	// job is the job this client is (or was last) working for. The zero
	// value names job 0 — see newMaster on what that does to a one-shot run.
	job int
	// preempting marks a Preempt, StopWork or Migrate in flight: the client
	// stays busy (its subproblem is live until the ack arrives) but must
	// not be stopped again or offered new work.
	preempting bool
	// stopSeq numbers this client's Preempt/StopWork sends. The client
	// echoes it in Preempted, letting the master drop acks from preempts
	// that a racing verdict already beat — the client may have been
	// reassigned by the time a stale ack lands, and honoring it would
	// wrongly free a busy client.
	stopSeq int
	// sentBase records which jobs' base formulas this client has cached, so
	// the scheduler sends each BaseProblem at most once per client.
	sentBase map[int]bool
	// splitReqEv is the flight-log ID of the client's pending split
	// request, the causal parent of the split-issue it produces.
	splitReqEv uint64

	// Live cluster view: totals summed from heartbeat deltas plus the
	// latest gauges, mirrored into per-client registry series.
	agg       comm.SolverDeltas
	dbLearnts int
	gauges    *clientGauges
	// depth is the guiding-path depth of the client's current subproblem
	// (latest heartbeat gauge).
	depth int
	// confRate is the EWMA conflict throughput from heartbeat deltas;
	// lastHBSec anchors the next interval.
	confRate  float64
	haveRate  bool
	lastHBSec float64
	// workers is the latest per-worker portfolio breakdown from the
	// client's heartbeat (nil for single-threaded clients).
	workers []comm.WorkerReport
}

// clientGauges are the per-client registry series behind /metrics.
type clientGauges struct {
	mem, learnts, busy, depth                           *obs.Gauge
	decisions, conflicts, propagations, lrnd, reclaimed *obs.Counter
	imported, importedUseful                            *obs.Counter
}

func newClientGauges(reg *obs.Registry, id int) *clientGauges {
	l := obs.L("client", fmt.Sprintf("%d", id))
	return &clientGauges{
		mem:            reg.Gauge("gridsat_client_mem_bytes", "latest reported client memory use", l),
		learnts:        reg.Gauge("gridsat_client_learnts", "latest reported learned-clause DB size", l),
		busy:           reg.Gauge("gridsat_client_busy", "1 while the client holds a subproblem", l),
		depth:          reg.Gauge("gridsat_client_path_depth", "guiding-path depth of the current subproblem", l),
		decisions:      reg.Counter("gridsat_client_decisions_total", "client decisions (heartbeat-aggregated)", l),
		conflicts:      reg.Counter("gridsat_client_conflicts_total", "client conflicts (heartbeat-aggregated)", l),
		propagations:   reg.Counter("gridsat_client_propagations_total", "client propagations (heartbeat-aggregated)", l),
		lrnd:           reg.Counter("gridsat_client_learned_total", "client learned clauses (heartbeat-aggregated)", l),
		reclaimed:      reg.Counter("gridsat_client_arena_reclaimed_bytes_total", "client clause-arena bytes reclaimed (heartbeat-aggregated)", l),
		imported:       reg.Counter("gridsat_client_imported_total", "peer clauses merged (heartbeat-aggregated)", l),
		importedUseful: reg.Counter("gridsat_client_imported_useful_total", "distinct imported clauses used at least once (heartbeat-aggregated)", l),
	}
}

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
	donorDone  bool
	assignedAt float64
	// issueEv is the split-issue flight event, parent of the accept/fail.
	issueEv uint64
	// migrate marks a §3.4 whole-problem move riding the same exchange: one
	// recipient, the donor goes idle, and the accept is logged as a
	// migration instead of a split.
	migrate bool
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
	fromPreempt                  // preempted checkpoint: migrate → job-resume under the preempt
	fromCrash                    // salvaged from a lost client: recover under the client-leave
)

// backlogSub is one subproblem the master holds until a client goes idle:
// a job's root, a leftover cofactor from an over-producing split, a
// preempted checkpoint, or what a lost client left behind. donor and
// issueEv name the client it came from and the flight event (split-issue,
// job-preempt or client-leave) its assignment hangs under.
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
	err      error
	// salvage rides on a client-lost event (err != nil) when the shell could
	// recover the dead client's work: its §3.4 checkpoint and any payloads
	// it never started. nil means nothing is recoverable (the live shell).
	salvage []*solver.Subproblem
	conn    comm.Conn // set for new connections (live shell only)
	// apply, when non-nil, runs a request (submit, cancel, state and job
	// queries, shutdown) on the event loop; its return value ends Run when
	// true. The closure owns its own reply channel.
	apply func() bool
}

// masterJob is one job's solving state at the master: the Job identity
// plus its split backlog, leftover cofactors, coverage estimator,
// clause-dedup window and verdict. Who holds its subproblems is read off
// the client table (see tally), not kept here.
type masterJob struct {
	*Job
	// backlog queues unserved split requests from this job's clients;
	// subBacklog queues its leftover cofactors and preempted checkpoints.
	backlog    []BacklogEntry
	subBacklog []backlogSub
	// assigned is set once the root subproblem was queued for handing out.
	assigned bool
	// status and model are the job's verdict (StatusUnknown while running);
	// cause says why a job is done without one (a client lost with the only
	// copy of a subproblem, a model that failed Verify).
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
	// fanout is the per-split recipient budget of the configured strategy
	// (1 for first-decision, 2^k-1 for a 2^k dilemma).
	fanout int
	// jobs holds every job by ID (terminal ones included, so results stay
	// queryable); jobOrder is submission order.
	jobs     map[int]*masterJob
	jobOrder []int
	// nextJobID issues Submit's job IDs, starting at 1: ID 0 belongs to the
	// job a one-shot master admits at construction.
	nextJobID int
	policy    SchedPolicy
	admission Admission
	// pendingSplits tracks in-flight subproblem transfers by token.
	pendingSplits map[int]*splitGroup
	// pendingAssigns tracks master-held subproblems (roots included) in
	// flight to a recipient, by recipient ID, until its SplitDone settles
	// (or requeues) them.
	pendingAssigns map[int]backlogSub
	// sharedDropped counts best-effort ShareClauses messages discarded
	// because a client's outbound queue was full.
	sharedDropped int64
	// shareTo is handleShare's recipient list, reused from batch to batch.
	shareTo []int
	result  Result
	// clusterAgg sums every heartbeat delta ever received, independent of
	// the clients map, so totals survive client churn (a departed client's
	// contribution is never lost).
	clusterAgg comm.SolverDeltas

	reg    *obs.Registry
	log    *obs.Logger
	met    masterMetrics
	flight *trace.Flight
	// inTI is the trace metadata of the message currently being handled
	// (zero for untraced messages).
	inTI comm.TraceInfo

	// hist is the time-series store behind GET /history (mutex-guarded:
	// the state machine samples, HTTP reads). wd is the anomaly watchdog.
	hist *history.Store
	wd   *watchdog
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

// masterMetrics caches the master's registry handles so the event loop
// never does a registry lookup.
type masterMetrics struct {
	msgs          map[string]*obs.Counter // by message kind
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
		msgs:          map[string]*obs.Counter{},
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

// countMsg bumps the per-kind inbound message counter.
func (m *Master) countMsg(kind string) {
	c := m.met.msgs[kind]
	if c == nil {
		c = m.reg.Counter("gridsat_master_msgs_total", "protocol messages handled by kind", obs.L("kind", kind))
		m.met.msgs[kind] = c
	}
	c.Inc()
}

// updateGauges republishes the pool gauges after any state change
// (O(clients), which is tiny next to the wire).
func (m *Master) updateGauges() {
	t := m.tally()
	m.met.registered.Set(int64(t.registered))
	m.met.busy.Set(int64(t.busy))
	m.met.reserved.Set(int64(t.reserved))
	var backlog, subBacklog, live int
	for _, j := range m.jobs {
		backlog += len(j.backlog)
		subBacklog += len(j.subBacklog)
		live += t.outstanding(j)
	}
	m.met.backlog.Set(int64(backlog))
	m.met.subBacklog.Set(int64(subBacklog))
	m.met.live.Set(int64(live))
}

// newMaster builds the control plane alone — no listener, goroutine or
// HTTP server — wired to the given shell seams (all nil: the live shell's,
// which are methods of the value built here).
func newMaster(cfg MasterConfig, now func() float64, send func(int, comm.Message), writeBundle func(BundleSpec)) (*Master, error) {
	cfg = cfg.withDefaults()
	if _, err := solver.ParseStrategy(cfg.SplitStrategy); err != nil {
		return nil, err
	}
	policy, err := ParseSchedPolicy(cfg.SchedPolicy)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Nop()
	}
	m := &Master{
		cfg:            cfg,
		now:            now,
		send:           send,
		writeBundle:    writeBundle,
		clients:        map[int]*masterClient{},
		fanout:         solver.StrategyFanout(cfg.SplitStrategy),
		jobs:           map[int]*masterJob{},
		policy:         policy,
		admission:      cfg.Admission,
		pendingSplits:  map[int]*splitGroup{},
		pendingAssigns: map[int]backlogSub{},
		reg:            reg,
		log:            log.Named("master"),
		met:            newMasterMetrics(reg),
		flight:         cfg.Flight,
	}
	if cfg.HistoryPeriod > 0 {
		m.hist = history.New(history.Config{IntervalSec: cfg.HistoryPeriod.Seconds()})
		wcfg := DefaultWatchdogConfig()
		if cfg.Watchdog != nil {
			wcfg = cfg.Watchdog.withDefaults()
		}
		m.wd = newWatchdog(wcfg)
	}
	if now == nil {
		m.now, m.send, m.writeBundle = m.wallNow, m.enqueue, m.writeBundleAsync
	}
	if cfg.Flight != nil {
		// Stamp log lines with the recorder's Lamport time so they can be
		// placed against the flight log's causal order.
		m.log = m.log.WithLamport(cfg.Flight)
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
	return m, nil
}

// Metrics returns the master's registry (the config's, or the private
// one allocated when none was supplied).
func (m *Master) Metrics() *obs.Registry { return m.reg }

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

// finishResult freezes the Result: the per-client aggregates, and what a
// one-shot run reports of its job 0 — verdict, model and SLO decomposition,
// with the end time stamped here when the run ended before the job did.
func (m *Master) finishResult() {
	if j0 := m.jobs[0]; j0 != nil {
		m.result.Status, m.result.Model = j0.status, j0.model
		if j0.FinishedAt == 0 {
			j0.FinishedAt = m.now()
			j0.observeEnd(&m.met)
		}
		m.result.Latency = jobLatency(j0.Job)
	}
	m.result.Clients = m.state().Clients
	if m.result.Threads == 0 {
		m.result.Threads = 1 // no portfolio heartbeat seen: single-threaded
	}
}

// connect admits a new, not yet registered client and issues its ID; the
// shell routes that ID's traffic from then on.
func (m *Master) connect() int {
	m.nextID++
	m.clients[m.nextID] = &masterClient{id: m.nextID, sentBase: map[int]bool{}}
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
	m.updateGauges()
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
		m.clientLost(c, ev.salvage)
		return
	}
	// Strip the trace envelope (if any) so the dispatch below sees the
	// payload; the metadata feeds femit's Lamport merge and Parent links.
	unwrapped, ti := comm.Unwrap(ev.msg)
	m.inTI = ti
	m.countMsg(unwrapped.Kind())
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
	case comm.Preempted:
		m.handlePreempted(c, msg)
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
	c.depth = msg.Depth
	c.workers = msg.Workers
	if len(msg.Workers) > m.result.Threads {
		m.result.Threads = len(msg.Workers)
	}
	c.agg.Add(msg.Deltas)
	m.clusterAgg.Add(msg.Deltas)
	// Conflict-rate EWMA for utilization and straggler detection.
	now := m.now()
	if dt := now - c.lastHBSec; dt > 0 {
		inst := float64(msg.Deltas.Conflicts) / dt
		if c.haveRate {
			c.confRate = progressEWMAAlpha*inst + (1-progressEWMAAlpha)*c.confRate
		} else {
			c.confRate, c.haveRate = inst, true
		}
		c.lastHBSec = now
	}
	if g := c.gauges; g != nil {
		g.mem.Set(msg.MemBytes)
		g.learnts.Set(int64(msg.Learnts))
		if msg.Busy {
			g.busy.Set(1)
		} else {
			g.busy.Set(0)
		}
		g.depth.Set(int64(msg.Depth))
		g.decisions.Add(msg.Deltas.Decisions)
		g.conflicts.Add(msg.Deltas.Conflicts)
		g.propagations.Add(msg.Deltas.Propagations)
		g.lrnd.Add(msg.Deltas.Learned)
		g.reclaimed.Add(msg.Deltas.ReclaimedBytes)
		g.imported.Add(msg.Deltas.Imported)
		g.importedUseful.Add(msg.Deltas.ImportedUseful)
	}
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
	c.gauges = newClientGauges(m.reg, c.id)
	m.log.Info("client registered", "id", c.id, "host", msg.HostName,
		"addr", msg.Addr, "free_mem", msg.FreeMemBytes)
	m.femit(trace.FEvent{Kind: trace.FEvClientJoin, Client: c.id,
		Detail: msg.HostName, Parent: m.inTI.Parent})
	m.send(c.id, comm.RegisterAck{ClientID: c.id})
	// The oldest active job's formula rides with the ack: under fifo it is
	// the job a fresh client will most likely serve (with one job: every
	// client has the formula before its first split, as in the paper). Any
	// other job's goes out when the client is first picked for it.
	for _, id := range m.jobOrder {
		if j := m.jobs[id]; j.State.Active() {
			m.ensureBase(c, j)
			break
		}
	}
	// A fresh idle client changes every job's share, and may serve a backlog.
	m.maybeRebalance()
}

// ensureBase sends a job's base formula to a client that has not cached
// it yet; called right before the client is reserved or assigned for the
// job (and at registration, for the oldest job).
func (m *Master) ensureBase(c *masterClient, j *masterJob) {
	if c.sentBase[j.ID] {
		return
	}
	c.sentBase[j.ID] = true
	m.send(c.id, comm.BaseProblem{Formula: j.Formula, Job: j.ID})
}

// markStarted moves a job to running on its first (or renewed) client
// assignment, stamping StartedAt and the lifecycle event.
func (m *Master) markStarted(j *masterJob) {
	switch j.State {
	case JobQueued:
		j.StartedAt = m.now()
		j.State = JobRunning
		m.met.queueWait.Observe(j.StartedAt - j.SubmittedAt)
		m.femit(trace.FEvent{Kind: trace.FEvJobStart, Job: j.ID})
	case JobPreempted:
		j.State = JobRunning
	}
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
	if j == nil || !c.busy || c.pendingSplit || c.preempting {
		return // idle clients cannot split; duplicates are ignored
	}
	c.pendingSplit = true
	c.splitReqEv = m.femit(trace.FEvent{Kind: trace.FEvSplitRequest,
		Client: c.id, Job: j.ID, Detail: msg.Why.String(), Parent: m.inTI.Parent})
	j.backlog = append(j.backlog, BacklogEntry{
		ClientID:    c.id,
		AssignedAt:  c.assignedAt,
		RequestedAt: m.now(),
	})
	m.serveBacklog()
}

// serveBacklog places queued work on idle resources: each active job gets
// clients up to its policy target, in submission order, so the allocation
// stays malleable. With one job the target is whatever the job can use, and
// this is the paper's flow: idle resources absorb its splits.
func (m *Master) serveBacklog() {
	t := m.tally() // for every job: placing a job's work changes only its own load
	targets := m.allocTargets(t)
	for _, id := range m.jobOrder {
		j := m.jobs[id]
		if !j.State.Active() {
			continue
		}
		deficit := max(0, targets[j.ID]-t.load(j.ID).held)
		if deficit > 0 && !j.assigned && t.registered >= m.cfg.ExpectedClients {
			// First allocation: the job starts from its root subproblem.
			m.assignRoot(j)
		}
		m.serveSplitBacklog(j, m.serveSubBacklog(j, deficit))
	}
}

// serveSplitBacklog serves a job's queued split requests, longest-running
// requester first. A request reserves up to the strategy's fanout in idle
// recipients, so a dilemma donor can shed all its cofactors in one
// exchange; limit caps how many recipients may be reserved in total. Stale
// requests ahead of the first live one are dropped whatever the limit: an
// entry left behind keeps its AssignedAt and would jump the queue if its
// client went busy again.
func (m *Master) serveSplitBacklog(j *masterJob, limit int) {
	for {
		i := NextFromBacklog(j.backlog)
		if i < 0 {
			return
		}
		donor := m.clients[j.backlog[i].ClientID]
		if donor == nil || !donor.busy || donor.job != j.ID || donor.preempting {
			// Requester vanished, finished, or was reassigned; drop the entry.
			j.backlog = append(j.backlog[:i], j.backlog[i+1:]...)
			continue
		}
		if limit <= 0 {
			return
		}
		budget := min(max(1, m.fanout), limit)
		var peers []comm.SplitPeer
		cands := m.idleCandidates()
		for len(peers) < budget {
			target, ok := PickSplitTarget(cands, m.cfg.MinMemBytes)
			if !ok {
				break
			}
			r := m.clients[target.ID]
			r.reserved = true
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
		j.backlog = append(j.backlog[:i], j.backlog[i+1:]...)
		donor.pendingSplit = false
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
		limit -= len(peers)
	}
}

// serveSubBacklog hands a job's master-held subproblems (its root,
// leftover split products, preempted checkpoints, salvage from lost
// clients) to idle clients — cheaper than asking a busy client to split.
// A queued subproblem is live search space where it lies; assignment moves
// it from the queue to the recipient, busy from the moment it is sent.
// Returns the remaining assignment budget.
func (m *Master) serveSubBacklog(j *masterJob, limit int) int {
	for len(j.subBacklog) > 0 && limit > 0 {
		target, ok := PickSplitTarget(m.idleCandidates(), m.cfg.MinMemBytes)
		if !ok {
			return limit
		}
		entry := j.subBacklog[0]
		j.subBacklog = j.subBacklog[1:]
		c := m.clients[target.ID]
		m.ensureBase(c, j)
		m.pendingAssigns[c.id] = entry
		m.send(c.id, comm.SplitPayload{SplitID: entry.splitID, From: entry.donor,
			Job: j.ID, Subs: []*solver.Subproblem{entry.sub}})
		c.busy = true
		c.job = j.ID
		c.assignedAt = m.now()
		m.markStarted(j)
		if entry.origin == fromRoot && j.FirstAssignAt == 0 {
			j.FirstAssignAt = m.now()
			m.met.firstAssign.Observe(j.FirstAssignAt - j.SubmittedAt)
		}
		m.result.MaxClients = max(m.result.MaxClients, m.tally().busy)
		limit--
	}
	return limit
}

func (m *Master) handleSplitDone(c *masterClient, msg comm.SplitDone) {
	// A master-held subproblem acks with the split ID it descended from
	// (0 for roots, preempted checkpoints and salvage).
	if entry, ok := m.pendingAssigns[c.id]; ok && entry.splitID == msg.SplitID {
		delete(m.pendingAssigns, c.id)
		j := m.jobs[entry.job]
		if msg.OK {
			switch entry.origin {
			case fromRoot:
				m.femit(trace.FEvent{Kind: trace.FEvAssign, Client: c.id, Job: entry.job})
			case fromPreempt:
				// A preempted checkpoint came back to life on a new client:
				// the flight log records the checkpoint's travel and the
				// resume under the job-preempt event that created it.
				m.femit(trace.FEvent{Kind: trace.FEvMigrate, Client: entry.donor,
					Peer: c.id, Job: entry.job, Parent: entry.issueEv})
				m.femit(trace.FEvent{Kind: trace.FEvJobResume, Client: c.id,
					Job: entry.job, Parent: entry.issueEv})
			case fromCrash:
				m.femit(trace.FEvent{Kind: trace.FEvRecover, Client: c.id,
					Job: entry.job, Parent: entry.issueEv})
			default:
				m.result.Splits++
				m.met.splits.Inc()
				m.femit(trace.FEvent{Kind: trace.FEvSplitAccept, Client: c.id,
					Peer: entry.donor, SplitID: entry.splitID, Parent: entry.issueEv})
			}
		} else {
			// The assignment bounced; requeue the subproblem — it is still
			// live search space. A Preempt sent behind the payload will be
			// answered by an idle client: that ack is stale.
			c.busy = false
			c.preempting = false
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: c.id,
				Peer: entry.donor, SplitID: entry.splitID, Parent: entry.issueEv, Detail: msg.Err})
			j.subBacklog = append(j.subBacklog, entry)
			m.serveBacklog()
		}
		m.checkExhausted(j)
		return
	}
	g, ok := m.pendingSplits[msg.SplitID]
	if !ok {
		// An already-settled group, or a transfer whose job ended while the
		// payload was in flight. In the last case the recipient just started
		// solving a dead job: stop it and keep it busy master-side until its
		// idle ack.
		if msg.OK && !c.busy {
			if j := m.jobOf(c); j != nil && !j.State.Active() {
				c.busy = true
				c.preempting = true
				c.stopSeq++
				m.send(c.id, comm.StopWork{Job: j.ID, Seq: c.stopSeq})
			}
		}
		m.checkExhausted(m.jobOf(c))
		return
	}
	j := m.jobs[g.job]
	if c.id == g.donor { // Figure 3, message (5)
		g.donorDone = true
		used := 0
		if msg.OK {
			used = min(msg.Used, len(g.recipients))
		} else {
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: g.donor,
				SplitID: msg.SplitID, Parent: g.issueEv, Detail: msg.Err})
			if g.migrate {
				c.preempting = false // the move is off; the donor solves on
			}
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
				r.reserved = false
			}
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: id,
				Peer: g.donor, SplitID: msg.SplitID, Parent: g.issueEv, Detail: "released unused"})
		}
		if len(msg.Leftover) > 0 {
			m.femit(trace.FEvent{Kind: trace.FEvSplitBacklog, Client: g.donor,
				SplitID: msg.SplitID, N: int64(len(msg.Leftover)), Parent: g.issueEv})
		}
	} else { // Figure 3, message (4): one recipient's leg concluded
		if !slices.Contains(g.recipients, c.id) || g.settled[c.id] {
			return
		}
		g.settled[c.id] = true
		c.reserved = false
		if msg.OK {
			c.busy = true
			c.assignedAt = m.now()
			if g.migrate {
				m.result.Migrations++
				m.femit(trace.FEvent{Kind: trace.FEvMigrate, Client: g.donor,
					Peer: c.id, Job: g.job})
			} else {
				m.result.Splits++
				m.met.splits.Inc()
				m.met.splitLat.Observe(m.now() - g.assignedAt)
				m.femit(trace.FEvent{Kind: trace.FEvSplitAccept, Client: c.id,
					Peer: g.donor, SplitID: msg.SplitID, Parent: g.issueEv})
			}
			m.result.MaxClients = max(m.result.MaxClients, m.tally().busy)
		} else {
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: c.id,
				Peer: g.donor, SplitID: msg.SplitID, Parent: g.issueEv, Detail: msg.Err})
			if len(msg.Leftover) == 0 {
				// A recipient answers only a payload it received, and this one
				// did not hand it back: the cofactor is gone, unsearched.
				m.finishJob(j, solver.StatusUnknown, nil,
					fmt.Errorf("core: client %d dropped its cofactor of split %d: %s", c.id, msg.SplitID, msg.Err))
				return
			}
		}
	}
	// What rides back is live search space again, the master's to hand out:
	// the donor's cofactors beyond the peers it served, or the payload a
	// recipient could not start.
	for _, sub := range msg.Leftover {
		j.subBacklog = append(j.subBacklog, backlogSub{sub: sub,
			splitID: msg.SplitID, donor: g.donor, issueEv: g.issueEv, job: g.job})
	}
	if g.done() {
		delete(m.pendingSplits, msg.SplitID)
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
	m.result.SharedClauses += n
	m.met.shared.Add(int64(n))
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
	if !c.busy || msg.Job != c.job {
		return // idle already, or a verdict on another job's subproblem
	}
	j := m.jobOf(c)
	if j == nil {
		return
	}
	c.busy = false
	c.pendingSplit = false
	c.preempting = false // a verdict beat any in-flight preempt
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
		m.femit(trace.FEvent{Kind: trace.FEvVerdict, Client: c.id, Worker: msg.Worker,
			Job: j.ID, Detail: "SAT", Parent: m.inTI.Parent})
		m.finishJob(j, solver.StatusSAT, msg.Model, nil)
		return
	case solver.StatusUNSAT:
		ev := m.femit(trace.FEvent{Kind: trace.FEvSubUNSAT, Client: c.id, Worker: msg.Worker,
			Job: j.ID, Parent: m.inTI.Parent})
		// Fold the refuted prefix into the job's coverage estimate: a
		// depth-d subproblem retires 2^-d of the root search space.
		units := j.prog.CloseSubproblem(msg.Depth, m.now())
		m.femit(trace.FEvent{Kind: trace.FEvProgress, Client: c.id, Job: j.ID,
			N: int64(units), Detail: fmt.Sprintf("depth=%d", msg.Depth), Parent: ev})
	}
	// This part of the space is exhausted — or, with StatusUnknown, handed
	// whole to a peer (migration), who may have refuted it already. If
	// nothing else is live the job is unsatisfiable; else the client is idle
	// and may take queued work.
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

// clientLost handles a client's departure. An idle client with no transfer
// in flight is simply forgotten. For one that held work, what happens
// depends on whether the shell could salvage it (ev.salvage: the §3.4
// checkpoint of its running subproblem plus any payloads it never started):
// salvaged subproblems go back on the job's backlog for the next idle
// client; with nothing salvaged — the live shell, where a dead process
// leaves no checkpoint — the search space is gone, and the job ends without
// a verdict.
func (m *Master) clientLost(c *masterClient, salvage []*solver.Subproblem) {
	held := c.busy || c.reserved
	m.log.Warn("client lost", "client", c.id, "host", c.hostName, "held", held, "job", c.job)
	leaveEv := m.femit(trace.FEvent{Kind: trace.FEvClientLeave, Client: c.id, Detail: c.hostName})
	m.forget(c.id)
	j := m.jobOf(c)
	if !held || j == nil || !j.State.Active() {
		j = nil // it held nothing anybody still wants
	} else if salvage == nil {
		// The lost subproblem's search space is unrecoverable, so the job
		// cannot conclude soundly: end it UNKNOWN, its transfers with it.
		m.finishJob(j, solver.StatusUnknown, nil,
			fmt.Errorf("core: lost client %d while it held a subproblem", c.id))
		j = nil
	}
	// Everything the client held left the table with it (its running
	// subproblem or a master-held assignment in flight to it; its legs of
	// in-flight transfers settle below), and everything recoverable goes
	// to the head of the backlog: an assignment it never acknowledged goes
	// back as it was (the master still holds it, whether or not the shell
	// caught it on the wire), the salvage as recover-on-crash entries.
	unwound := j != nil
	if unwound {
		var requeue []backlogSub
		pending, unacked := m.pendingAssigns[c.id]
		if unacked {
			delete(m.pendingAssigns, c.id)
			requeue = append(requeue, pending)
		}
		for _, sub := range salvage {
			if !unacked || sub != pending.sub {
				requeue = append(requeue, backlogSub{sub: sub, origin: fromCrash, donor: c.id, issueEv: leaveEv, job: j.ID})
			}
		}
		j.subBacklog = append(requeue, j.subBacklog...)
	}
	for _, splitID := range m.sortedSplitIDs() {
		g := m.pendingSplits[splitID]
		switch {
		case g.donor == c.id && !g.donorDone:
			// Links are FIFO, so a donor whose SplitDone has not arrived
			// never split: none of its recipients will get a payload. (The
			// donor may hold nothing any more: its verdict passed the
			// SplitAssign on the wire.)
			unwound = true
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: g.donor,
				Peer: g.recipients[0], SplitID: splitID, Parent: g.issueEv, Detail: "client lost"})
			for _, rid := range g.recipients {
				if g.settled[rid] {
					continue
				}
				if r := m.clients[rid]; r != nil {
					r.reserved = false
				}
			}
			delete(m.pendingSplits, splitID)
		case !g.settled[c.id] && slices.Contains(g.recipients, c.id):
			unwound = true
			g.settled[c.id] = true
			m.femit(trace.FEvent{Kind: trace.FEvSplitFail, Client: c.id, Peer: g.donor,
				SplitID: splitID, Parent: g.issueEv, Detail: "client lost"})
			if g.done() {
				delete(m.pendingSplits, splitID)
			}
		}
	}
	if !unwound {
		return
	}
	m.serveBacklog()
	for _, id := range m.jobOrder {
		m.checkExhausted(m.jobs[id])
	}
}

// sortedSplitIDs lists the in-flight transfer tokens ascending, so walks
// that emit or release stay deterministic.
func (m *Master) sortedSplitIDs() []int {
	return slices.Sorted(maps.Keys(m.pendingSplits))
}

// maybeMigrate is the paper's §3.4 migration decision: when the best idle
// client outranks the weakest busy one by factor — Blue Horizon nodes just
// joined, a cluster freed up — the weakest's whole subproblem moves there
// instead of being split. Only clients that have held their subproblem for
// minHeld seconds are candidates. The shell calls this after refreshing
// forecasts (noteForecast); factor <= 0 disables migration.
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
		if !c.busy || c.preempting || m.now()-c.assignedAt < minHeld {
			continue
		}
		if weakest == nil || c.rank < weakest.rank {
			weakest = c
		}
	}
	if weakest == nil || target.Rank < factor*weakest.rank {
		return
	}
	j := m.jobOf(weakest)
	if j == nil || !j.State.Active() {
		return
	}
	// The move rides the split exchange with one recipient: the donor
	// ships its checkpoint peer-to-peer and reports Solved(unknown).
	r := m.clients[target.ID]
	r.reserved = true
	r.job = j.ID
	m.ensureBase(r, j)
	weakest.preempting = true
	weakest.stopSeq++ // no ack answers a Migrate: one still in flight is from an older stop
	m.nextSplitID++
	m.pendingSplits[m.nextSplitID] = &splitGroup{donor: weakest.id, job: j.ID,
		recipients: []int{r.id}, settled: map[int]bool{}, assignedAt: m.now(), migrate: true}
	m.send(weakest.id, comm.Migrate{SplitID: m.nextSplitID, PeerID: r.id, PeerAddr: r.addr})
}

func (m *Master) idleCandidates() []Candidate {
	var out []Candidate
	for _, id := range m.order {
		c := m.clients[id]
		if c.busy || c.reserved || c.addr == "" {
			continue
		}
		out = append(out, Candidate{ID: c.id, Rank: c.rank, MemBytes: c.freeMem})
	}
	return out
}
