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

// sampleTick is one sampler period: build one ClusterState, fold the
// registry and the state's cluster/job/client series (the ones the
// dashboard sparklines read) into the history store, and feed the same
// state to the watchdog — and to the bundle of any alert it fires.
// Event-loop only.
func (m *Master) sampleTick() {
	st := m.state()
	t := st.WallSeconds
	if h := m.hist; h != nil {
		h.SampleSnapshot(t, m.reg.Snapshot())
		for _, j := range st.Jobs {
			if j.Searching {
				h.Observe(fmt.Sprintf("job.%d.coverage", j.ID), t, j.Coverage)
			}
		}
		for _, c := range st.Clients {
			h.Observe(fmt.Sprintf("client.%d.conflict_rate", c.ID), t, c.ConflictsPerSec)
		}
		h.Observe("cluster.coverage", t, st.Coverage)
		h.Observe("cluster.busy", t, float64(st.Busy))
		h.Observe("cluster.queue_depth", t, float64(st.Backlog+st.SubBacklog))
		h.Observe("cluster.conflict_rate", t, st.ConflictRate)
		h.Observe("cluster.mem_bytes", t, float64(st.MemBytes))
		if st.Imported > 0 {
			h.Observe("cluster.share_efficacy", t, st.Efficacy.UsefulRatio)
		}
	}
	if m.wd == nil {
		return
	}
	for _, a := range m.wd.observe(st.watch()) {
		m.femit(trace.FEvent{Kind: trace.FEvAnomaly, Client: a.Client,
			Detail: a.Rule + ": " + a.Detail})
		m.log.Warn("watchdog alert", "rule", a.Rule, "subject", a.Subject,
			"detail", a.Detail)
		if m.cfg.BundleDir != "" {
			m.writeBundle(m.bundleSpec("anomaly-"+a.Rule, st))
		}
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
	Serve            bool           `json:"serve"`
	SchedPolicy      string         `json:"sched_policy"`
	SplitStrategy    string         `json:"split_strategy"`
	MinMemBytes      int64          `json:"min_mem_bytes"`
	HistoryPeriodSec float64        `json:"history_period_sec"`
	Watchdog         WatchdogConfig `json:"watchdog"`
	BundleDir        string         `json:"bundle_dir"`
	Build            any            `json:"build"`
}

// bundleSpec freezes everything a bundle captures out of loop state; st
// becomes its state.json. The state machine's own triggers (job failure,
// cancellation, watchdog alert) hand the spec to the shell's writeBundle.
// Event-loop only.
func (m *Master) bundleSpec(reason string, st ClusterState) BundleSpec {
	m.bundleSeq++
	cfg := bundleConfig{
		Serve:         m.cfg.Formula == nil,
		SchedPolicy:   m.policy.Name(),
		SplitStrategy: m.cfg.SplitStrategy,
		MinMemBytes:   m.cfg.MinMemBytes,
		BundleDir:     m.cfg.BundleDir,
		Build:         m.build,
	}
	if m.hist != nil {
		cfg.HistoryPeriodSec = m.cfg.HistoryPeriod.Seconds()
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
		State:   st,
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
