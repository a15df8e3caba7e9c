package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"gridsat/internal/obs"
	"gridsat/internal/trace"
)

// This file is the master's service-grade observability plumbing: the
// sampler tick, the ring of samples it records (read by the anomaly
// watchdog, GET /history, `gridsat top` and bundles) and the registry
// series it publishes (GET /metrics), the alert feed
// accessor behind GET /alerts, and the postmortem bundle capture behind
// POST /debug/bundle plus the automatic failure/cancel/anomaly triggers.

// ErrDraining rejects bundle captures once Shutdown has been requested —
// the state a bundle would freeze is being torn down.
var ErrDraining = errors.New("core: master is draining")

// ErrNoBundleDir rejects bundle captures on a master configured without
// MasterConfig.BundleDir.
var ErrNoBundleDir = errors.New("core: no bundle directory configured (set MasterConfig.BundleDir)")

// lamportHandler stamps every log record with the flight recorder's
// Lamport time as lamport=N. Wall clocks skew across grid sites; the stamp
// is what places a log line against the flight log's causal order.
type lamportHandler struct {
	slog.Handler
	clock *trace.Flight
}

func (h lamportHandler) Handle(ctx context.Context, r slog.Record) error {
	r.AddAttrs(slog.Uint64("lamport", h.clock.Now()))
	return h.Handler.Handle(ctx, r)
}

func (h lamportHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return lamportHandler{h.Handler.WithAttrs(attrs), h.clock}
}

func (h lamportHandler) WithGroup(name string) slog.Handler {
	return lamportHandler{h.Handler.WithGroup(name), h.clock}
}

// alertsResponse is the GET /alerts payload.
type alertsResponse struct {
	Alerts []Alert `json:"alerts"`
}

// historyResponse is the GET /history payload and a bundle's history.json:
// the ring of samples, oldest first.
type historyResponse struct {
	Samples []Sample `json:"samples"`
}

// Alerts returns a copy of the watchdog's retained alert feed, oldest
// first, or an error when the event loop does not answer in time.
func (m *Master) Alerts() ([]Alert, error) {
	var out []Alert
	if err := m.apply(func() { out = m.wd.feed() }); err != nil {
		return nil, err
	}
	return out, nil
}

// History returns a copy of the ring of samples, oldest first, or an error
// when the event loop does not answer in time.
func (m *Master) History() ([]Sample, error) {
	var out []Sample
	if err := m.apply(func() { out = append([]Sample{}, m.samples...) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Sample is one sampler tick of a ClusterState, reduced to what its readers
// read: the watchdog rules, GET /history, a bundle's history.json and the
// `gridsat top` sparklines. A ring of them does not pin minutes of full job
// and client lists.
type Sample struct {
	TSec         float64        `json:"t_sec"`
	Coverage     float64        `json:"coverage"`
	Busy         int            `json:"busy"`
	MemBytes     int64          `json:"mem_bytes"`
	ConflictRate float64        `json:"conflict_rate"`
	Clients      []SampleClient `json:"clients,omitempty"`
}

// SampleClient is one client's slice of a Sample.
type SampleClient struct {
	ID               int     `json:"id"`
	Busy             bool    `json:"busy"`
	Straggler        bool    `json:"straggler"`
	LastHeartbeatSec float64 `json:"last_heartbeat_sec"`
	MemBytes         int64   `json:"mem_bytes"`
	ConflictsPerSec  float64 `json:"conflicts_per_sec"`
}

// sample reduces a state to its Sample.
func (st *ClusterState) sample() Sample {
	s := Sample{TSec: st.WallSeconds, Coverage: st.Coverage, Busy: st.Busy,
		MemBytes: st.MemBytes, ConflictRate: st.ConflictRate,
		Clients: make([]SampleClient, len(st.Clients))}
	for i, c := range st.Clients {
		s.Clients[i] = SampleClient{ID: c.ID, Busy: c.Busy, Straggler: c.Straggler,
			LastHeartbeatSec: c.LastHeartbeatSec, MemBytes: c.MemBytes,
			ConflictsPerSec: c.ConflictsPerSec}
	}
	return s
}

// ringSamples is how many samples the ring keeps at least: four minutes at
// the live shell's one-second tick.
const ringSamples = 256

// sampleTick is one sampler period: build one ClusterState, publish it to
// the registry, append its Sample to the ring, and run the watchdog over the
// ring — handing the same state to the bundle of any alert it fires. The
// ring drops its oldest sample once it holds more than ringSamples and no
// watchdog window reaches back that far. Event-loop only.
func (m *Master) sampleTick() {
	st := m.state()
	m.publish(st)
	s := st.sample()
	m.samples = append(m.samples, s)
	for len(m.samples) > ringSamples && s.TSec-m.samples[1].TSec > maxWindowSec {
		m.samples[0] = Sample{} // release its client rows
		m.samples = m.samples[1:]
	}
	for _, a := range m.wd.observe(m.samples) {
		m.femit(trace.FEvent{Kind: trace.FEvAnomaly, Client: a.Client,
			Detail: a.Rule + ": " + a.Detail})
		m.log.Warn("watchdog alert", "rule", a.Rule, "subject", a.Subject,
			"detail", a.Detail)
		if m.cfg.BundleDir != "" {
			m.writeBundle(m.bundleSpec("anomaly-"+a.Rule, st))
		}
	}
}

// publish sets every master and client registry series that has a field in
// st: the pool gauges, the cluster counters (advanced to st's totals) and
// each client row's gauges and heartbeat-summed counters. Nothing else
// writes them, so /metrics reads what /status read at the same tick.
// Event-loop only.
func (m *Master) publish(st ClusterState) {
	met := &m.met
	met.registered.Set(int64(st.Registered))
	met.busy.Set(int64(st.Busy))
	met.reserved.Set(int64(st.Reserved))
	met.backlog.Set(int64(st.Backlog))
	met.subBacklog.Set(int64(st.SubBacklog))
	met.live.Set(int64(st.Outstanding))
	advance(met.splits, int64(st.Splits))
	advance(met.shared, int64(st.Shared))
	advance(met.sharedDropped, st.SharedDropped)
	for _, c := range st.Clients {
		l := obs.L("client", strconv.Itoa(c.ID))
		gauge := func(name, help string, v int64) { m.reg.Gauge(name, help, l).Set(v) }
		counter := func(name, help string, total int64) { advance(m.reg.Counter(name, help, l), total) }
		busy := int64(0)
		if c.Busy {
			busy = 1
		}
		gauge("gridsat_client_mem_bytes", "latest reported client memory use", c.MemBytes)
		gauge("gridsat_client_learnts", "latest reported learned-clause DB size", int64(c.DBLearnts))
		gauge("gridsat_client_busy", "1 while the client holds a subproblem", busy)
		gauge("gridsat_client_path_depth", "guiding-path depth of the current subproblem", int64(c.Depth))
		counter("gridsat_client_decisions_total", "client decisions (heartbeat-aggregated)", c.Decisions)
		counter("gridsat_client_conflicts_total", "client conflicts (heartbeat-aggregated)", c.Conflicts)
		counter("gridsat_client_propagations_total", "client propagations (heartbeat-aggregated)", c.Propagations)
		counter("gridsat_client_learned_total", "client learned clauses (heartbeat-aggregated)", c.Learned)
		counter("gridsat_client_arena_reclaimed_bytes_total", "client clause-arena bytes reclaimed (heartbeat-aggregated)", c.ReclaimedBytes)
		counter("gridsat_client_imported_total", "peer clauses merged (heartbeat-aggregated)", c.Imported)
		counter("gridsat_client_imported_useful_total", "distinct imported clauses used at least once (heartbeat-aggregated)", c.ImportedUseful)
	}
}

// advance moves a counter up to total; a counter never goes down.
func advance(c *obs.Counter, total int64) {
	if d := total - c.Value(); d > 0 {
		c.Add(d)
	}
}

// TriggerBundle captures a postmortem bundle on demand (POST
// /debug/bundle) and returns the written directory. The snapshot is
// assembled on the event loop; the write itself runs on the caller's
// goroutine so a CPU-profile capture never stalls the loop.
func (m *Master) TriggerBundle(reason string) (string, error) {
	if m.cfg.BundleDir == "" {
		return "", ErrNoBundleDir
	}
	if m.draining.Load() {
		return "", ErrDraining
	}
	if reason == "" {
		reason = "manual"
	}
	var spec BundleSpec
	if err := m.apply(func() { spec = m.bundleSpec(reason, m.state()) }); err != nil {
		return "", err
	}
	spec.CPUProfileDur = bundleCPUProfile
	return WriteBundle(spec)
}

// bundleCPUProfile is how long a live bundle profiles the CPU; the DES's
// inline sink never does, so its bundles stay deterministic.
const bundleCPUProfile = 200 * time.Millisecond

// writeBundleAsync is the live shell's bundle sink: the write (and its
// CPU-profile capture) runs on its own goroutine, off the event loop.
func (m *Master) writeBundleAsync(spec BundleSpec) {
	logger := m.log
	spec.CPUProfileDur = bundleCPUProfile
	go func() {
		dir, err := WriteBundle(spec)
		if err != nil {
			logger.Warn("bundle capture failed", "reason", spec.Reason, "err", err)
			return
		}
		logger.Info("bundle written", "reason", spec.Reason, "dir", dir)
	}()
}

// bundleConfig is the config.json section: the effective observability
// and scheduling knobs (the formula and transport are not serializable
// and are captured by the state dump instead).
type bundleConfig struct {
	Serve       bool               `json:"serve"`
	MinMemBytes int64              `json:"min_mem_bytes"`
	Watchdog    watchdogThresholds `json:"watchdog"`
	BundleDir   string             `json:"bundle_dir"`
	Build       any                `json:"build"`
}

// bundleSpec freezes everything a bundle captures out of loop state; st
// becomes its state.json and is published first, so metrics.json agrees
// with it. The state machine's own triggers (job failure, cancellation,
// watchdog alert) hand the spec to the shell's writeBundle. Event-loop only.
func (m *Master) bundleSpec(reason string, st ClusterState) BundleSpec {
	m.bundleSeq++
	m.publish(st)
	cfg := bundleConfig{
		Serve:       m.cfg.Formula == nil,
		MinMemBytes: m.cfg.MinMemBytes,
		Watchdog:    bundleThresholds,
		BundleDir:   m.cfg.BundleDir,
		Build:       m.build,
	}
	spec := BundleSpec{
		Dir:     m.cfg.BundleDir,
		Name:    fmt.Sprintf("bundle-%03d-%s", m.bundleSeq, sanitizeReason(reason)),
		Reason:  reason,
		TSec:    m.now(),
		Config:  cfg,
		State:   st,
		Metrics: m.reg.Snapshot(),
		History: append([]Sample{}, m.samples...),
		Alerts:  m.wd.feed(),
	}
	if m.flight != nil {
		spec.Events = m.flight.Events()
	}
	return spec
}

// sanitizeReason turns a free-form trigger reason into a safe directory
// name component.
func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(reason) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	out := strings.Trim(b.String(), "-")
	if out == "" {
		out = "manual"
	}
	if len(out) > 48 {
		out = out[:48]
	}
	return out
}
