package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"gridsat/internal/trace"
)

// This file is the master's service-grade observability plumbing: the
// periodic history sample (fed to the time-series store and the anomaly
// watchdog), the alert feed accessor behind GET /alerts, and the
// postmortem bundle capture behind POST /debug/bundle plus the automatic
// failure/cancel/anomaly triggers.

// ErrDraining rejects bundle captures once Shutdown has been requested —
// the state a bundle would freeze is being torn down.
var ErrDraining = errors.New("core: master is draining")

// ErrNoBundleDir rejects bundle captures on a master configured without
// MasterConfig.BundleDir.
var ErrNoBundleDir = errors.New("core: no bundle directory configured (set MasterConfig.BundleDir)")

// alertsResponse is the GET /alerts payload.
type alertsResponse struct {
	Alerts []Alert `json:"alerts"`
}

// Alerts returns a copy of the watchdog's retained alert feed, oldest
// first (empty when the sampler/watchdog is disabled).
func (m *Master) Alerts() []Alert {
	var out []Alert
	_ = m.apply(func() {
		if m.wd != nil {
			out = m.wd.feed()
		}
	})
	if out == nil {
		out = []Alert{}
	}
	return out
}

// sampleTick is one sampler period: fold the registry into the history
// store, derive the per-job/per-client series the dashboard sparkline
// columns read, and feed the watchdog. Event-loop only.
func (m *Master) sampleTick() {
	t := m.now()
	if m.hist != nil {
		m.hist.SampleSnapshot(t, m.reg.Snapshot())
		m.sampleDerived(t)
	}
	if m.wd == nil {
		return
	}
	for _, a := range m.wd.observe(m.watchSample(t)) {
		m.femit(trace.FEvent{Kind: trace.FEvAnomaly, Client: a.Client,
			Detail: a.Rule + ": " + a.Detail})
		m.log.Warn("watchdog alert", "rule", a.Rule, "subject", a.Subject,
			"detail", a.Detail)
		if m.cfg.BundleDir != "" {
			m.captureBundle("anomaly-" + a.Rule)
		}
	}
}

// sampleDerived records the cluster/job/client series that have no
// direct registry counterpart. Event-loop only.
func (m *Master) sampleDerived(t float64) {
	var busy int
	var memBytes int64
	var queueDepth int
	var confRate float64
	var coverage float64
	var activeJobs int
	for _, id := range m.jobOrder {
		j := m.jobs[id]
		queueDepth += len(j.backlog) + len(j.subBacklog)
		if j.State.Active() && j.assigned {
			coverage += j.prog.Fraction()
			activeJobs++
			m.hist.Observe(fmt.Sprintf("job.%d.coverage", j.ID), t, j.prog.Fraction())
		}
	}
	if activeJobs > 1 {
		coverage /= float64(activeJobs)
	}
	for _, id := range m.order {
		c := m.clients[id]
		if c.addr == "" {
			continue
		}
		memBytes += c.usedMem
		if c.busy {
			busy++
			confRate += c.confRate
		}
		m.hist.Observe(fmt.Sprintf("client.%d.conflict_rate", c.id), t, c.confRate)
	}
	m.hist.Observe("cluster.coverage", t, coverage)
	m.hist.Observe("cluster.busy", t, float64(busy))
	m.hist.Observe("cluster.queue_depth", t, float64(queueDepth))
	m.hist.Observe("cluster.conflict_rate", t, confRate)
	m.hist.Observe("cluster.mem_bytes", t, float64(memBytes))
	if m.clusterAgg.Imported > 0 {
		m.hist.Observe("cluster.share_efficacy", t,
			float64(m.clusterAgg.ImportedUseful)/float64(m.clusterAgg.Imported))
	}
}

// watchSample builds the watchdog's view of the current tick. Straggler
// flags come from the same markStragglers pass /progress uses, so the
// watchdog and the dashboard never disagree about who is slow.
// Event-loop only.
func (m *Master) watchSample(t float64) WatchSample {
	s := WatchSample{TSec: t}
	var rows []ClientProgress
	for _, id := range m.order {
		c := m.clients[id]
		if c.addr == "" {
			continue
		}
		s.MemBytes += c.usedMem
		if c.busy {
			s.Busy++
		}
		rows = append(rows, ClientProgress{ID: c.id, Busy: c.busy,
			ConflictsPerSec: c.confRate, MemBytes: c.usedMem})
	}
	markStragglers(rows)
	for _, r := range rows {
		c := m.clients[r.ID]
		// Silence counts from the last heartbeat or the current
		// assignment, whichever is later: idle clients do not report, so a
		// client put back to work after a long idle spell is not declared
		// silent before its first report is even due.
		hb := max(c.lastHBSec, c.assignedAt)
		if hb == 0 {
			hb = t
		}
		s.Clients = append(s.Clients, WatchClient{ID: r.ID, Busy: r.Busy,
			Straggler: r.Straggler, LastHeartbeatSec: hb, MemBytes: r.MemBytes})
	}
	for _, id := range m.jobOrder {
		j := m.jobs[id]
		if j.State.Active() && j.assigned {
			s.Coverage += j.prog.Fraction()
		}
	}
	return s
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
	if err := m.apply(func() { spec = m.bundleSpec(reason) }); err != nil {
		return "", err
	}
	return WriteBundle(spec)
}

// captureBundle freezes a bundle for a state-machine trigger (job failure,
// cancellation, watchdog alert) and hands it to the shell to write.
func (m *Master) captureBundle(reason string) {
	m.writeBundle(m.bundleSpec(reason))
}

// writeBundleAsync is the live shell's bundle sink: the write (and its
// CPU-profile capture) runs on its own goroutine, off the event loop.
func (m *Master) writeBundleAsync(spec BundleSpec) {
	logger := m.log
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
	Serve            bool           `json:"serve"`
	SchedPolicy      string         `json:"sched_policy"`
	SplitStrategy    string         `json:"split_strategy"`
	MinMemBytes      int64          `json:"min_mem_bytes"`
	ShareWindow      int            `json:"share_window"`
	HistoryPeriodSec float64        `json:"history_period_sec"`
	Watchdog         WatchdogConfig `json:"watchdog"`
	BundleDir        string         `json:"bundle_dir"`
	Build            any            `json:"build"`
}

// bundleState is the state.json "state" payload: the same pool and
// progress views /status and /progress serve.
type bundleState struct {
	Status   StatusSnapshot   `json:"status"`
	Progress ProgressSnapshot `json:"progress"`
}

// bundleSpec freezes everything a bundle captures out of loop state.
// Event-loop only.
func (m *Master) bundleSpec(reason string) BundleSpec {
	m.bundleSeq++
	cfg := bundleConfig{
		Serve:         m.serve,
		SchedPolicy:   m.policy.Name(),
		SplitStrategy: m.cfg.SplitStrategy,
		MinMemBytes:   m.cfg.MinMemBytes,
		ShareWindow:   m.cfg.ShareWindow,
		BundleDir:     m.cfg.BundleDir,
		Build:         m.build,
	}
	if p := m.cfg.HistoryPeriod; p > 0 {
		cfg.HistoryPeriodSec = p.Seconds()
	} else if m.hist != nil {
		cfg.HistoryPeriodSec = 1
	}
	if m.wd != nil {
		cfg.Watchdog = m.wd.cfg
	}
	spec := BundleSpec{
		Dir:     m.cfg.BundleDir,
		Name:    fmt.Sprintf("bundle-%03d-%s", m.bundleSeq, sanitizeReason(reason)),
		Reason:  reason,
		TSec:    m.now(),
		Config:  cfg,
		State:   bundleState{Status: m.statusSnapshot(), Progress: m.progressSnapshot()},
		Metrics: m.reg.Snapshot(),
	}
	if m.hist != nil {
		spec.History = m.hist.Dump()
	}
	if m.wd != nil {
		spec.Alerts = m.wd.feed()
	}
	if m.flight != nil {
		spec.Events = m.flight.Events()
	}
	switch d := m.cfg.BundleCPUProfile; {
	case d > 0:
		spec.CPUProfileDur = d
	case d == 0:
		spec.CPUProfileDur = 200 * time.Millisecond
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
