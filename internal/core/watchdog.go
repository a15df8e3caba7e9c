package core

import (
	"fmt"
	"sort"
)

// The anomaly watchdog evaluates a small rule set over the sampled
// history window and turns slow-burn failures — a search that stopped
// covering space, a client that stopped answering, memory creeping
// toward the budget — into explicit alerts before they become a stuck
// or dead run. Rules are pure functions over windows of the master's
// ring of Samples, so they are table-testable and behave identically in the live master
// (wall seconds) and the DES (virtual seconds).

// WatchdogConfig holds per-rule thresholds. Zero fields take the
// defaults from DefaultWatchdogConfig; a negative threshold disables
// that rule.
type WatchdogConfig struct {
	// StallWindowSec fires progress-stall when cluster coverage is flat
	// across a window of at least this span while >= StallMinBusy
	// clients stayed busy the whole time.
	StallWindowSec float64 `json:"stall_window_sec"`
	StallMinBusy   int     `json:"stall_min_busy"`
	// StragglerWindowSec fires straggler-persist when the same client
	// is marked a straggler in every sample across the window.
	StragglerWindowSec float64 `json:"straggler_window_sec"`
	// MemWindowSec/MemGrowthFactor fire mem-pressure when cluster
	// memory grew by at least the factor across the window and the
	// current total is at least MemMinBytes (the floor keeps tiny
	// absolute growth from alerting at startup).
	MemWindowSec    float64 `json:"mem_window_sec"`
	MemGrowthFactor float64 `json:"mem_growth_factor"`
	MemMinBytes     int64   `json:"mem_min_bytes"`
	// HeartbeatGapSec fires heartbeat-gap when a busy client has not
	// reported for this long.
	HeartbeatGapSec float64 `json:"heartbeat_gap_sec"`
	// CooldownSec suppresses re-firing the same (rule, subject) pair
	// until this much time has passed since it last fired.
	CooldownSec float64 `json:"cooldown_sec"`
}

// DefaultWatchdogConfig returns the thresholds documented in DESIGN.md.
// They are interpreted as wall seconds in the live master and virtual
// seconds in the DES.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		StallWindowSec:     60,
		StallMinBusy:       1,
		StragglerWindowSec: 45,
		MemWindowSec:       120,
		MemGrowthFactor:    1.5,
		MemMinBytes:        256 << 20,
		HeartbeatGapSec:    15,
		CooldownSec:        60,
	}
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	d := DefaultWatchdogConfig()
	if c.StallWindowSec == 0 {
		c.StallWindowSec = d.StallWindowSec
	}
	if c.StallMinBusy == 0 {
		c.StallMinBusy = d.StallMinBusy
	}
	if c.StragglerWindowSec == 0 {
		c.StragglerWindowSec = d.StragglerWindowSec
	}
	if c.MemWindowSec == 0 {
		c.MemWindowSec = d.MemWindowSec
	}
	if c.MemGrowthFactor == 0 {
		c.MemGrowthFactor = d.MemGrowthFactor
	}
	if c.MemMinBytes == 0 {
		c.MemMinBytes = d.MemMinBytes
	}
	if c.HeartbeatGapSec == 0 {
		c.HeartbeatGapSec = d.HeartbeatGapSec
	}
	if c.CooldownSec == 0 {
		c.CooldownSec = d.CooldownSec
	}
	return c
}

// maxWindowSec is the widest span any rule looks back over, i.e. how
// much of the ring the watchdog must find retained.
func (c WatchdogConfig) maxWindowSec() float64 {
	w := c.StallWindowSec
	if c.StragglerWindowSec > w {
		w = c.StragglerWindowSec
	}
	if c.MemWindowSec > w {
		w = c.MemWindowSec
	}
	if c.HeartbeatGapSec > w {
		w = c.HeartbeatGapSec
	}
	return w
}

// Rule names, used as the Alert.Rule discriminator and in FEvAnomaly
// details.
const (
	RuleProgressStall    = "progress-stall"
	RuleStragglerPersist = "straggler-persist"
	RuleMemPressure      = "mem-pressure"
	RuleHeartbeatGap     = "heartbeat-gap"
)

// Alert is one fired watchdog rule.
type Alert struct {
	Rule    string  `json:"rule"`
	Subject string  `json:"subject"` // "cluster" or "client N"
	Client  int     `json:"client,omitempty"`
	TSec    float64 `json:"t_sec"`
	Detail  string  `json:"detail"`
}

// evalWatchdog evaluates every rule against the window (oldest-first
// samples) and returns the alerts that hold at the newest sample. It is
// pure: cooldown/dedup is the caller's (watchdog.observe) concern.
func evalWatchdog(cfg WatchdogConfig, win []Sample) []Alert {
	if len(win) == 0 {
		return nil
	}
	var out []Alert
	last := win[len(win)-1]

	// progress-stall: coverage flat over the stall window while enough
	// clients stayed busy for the whole span.
	if cfg.StallWindowSec > 0 {
		if i, ok := windowStart(win, cfg.StallWindowSec); ok {
			flat, busyAll := true, true
			for _, s := range win[i:] {
				if s.Coverage > win[i].Coverage+1e-12 {
					flat = false
				}
				if s.Busy < cfg.StallMinBusy {
					busyAll = false
				}
			}
			if flat && busyAll {
				out = append(out, Alert{
					Rule: RuleProgressStall, Subject: "cluster", TSec: last.TSec,
					Detail: fmt.Sprintf("coverage flat at %.6f for %.0fs with %d clients busy",
						last.Coverage, last.TSec-win[i].TSec, last.Busy),
				})
			}
		}
	}

	// straggler-persist: the same client flagged in every sample across
	// the straggler window.
	if cfg.StragglerWindowSec > 0 {
		if i, ok := windowStart(win, cfg.StragglerWindowSec); ok {
			always := map[int]bool{}
			for _, c := range win[i].Clients {
				if c.Straggler {
					always[c.ID] = true
				}
			}
			for _, s := range win[i+1:] {
				seen := map[int]bool{}
				for _, c := range s.Clients {
					if c.Straggler {
						seen[c.ID] = true
					}
				}
				for id := range always {
					if !seen[id] {
						delete(always, id)
					}
				}
			}
			ids := make([]int, 0, len(always))
			for id := range always {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				out = append(out, Alert{
					Rule: RuleStragglerPersist, Subject: fmt.Sprintf("client %d", id),
					Client: id, TSec: last.TSec,
					Detail: fmt.Sprintf("client %d below straggler threshold for %.0fs",
						id, last.TSec-win[i].TSec),
				})
			}
		}
	}

	// mem-pressure: cluster memory grew by the factor over the window
	// and is above the absolute floor.
	if cfg.MemWindowSec > 0 && cfg.MemGrowthFactor > 0 {
		if i, ok := windowStart(win, cfg.MemWindowSec); ok {
			base := win[i].MemBytes
			if last.MemBytes >= cfg.MemMinBytes && base > 0 &&
				float64(last.MemBytes) >= cfg.MemGrowthFactor*float64(base) {
				out = append(out, Alert{
					Rule: RuleMemPressure, Subject: "cluster", TSec: last.TSec,
					Detail: fmt.Sprintf("cluster memory %d -> %d bytes (%.2fx) over %.0fs",
						base, last.MemBytes, float64(last.MemBytes)/float64(base),
						last.TSec-win[i].TSec),
				})
			}
		}
	}

	// heartbeat-gap: a busy client silent past the gap threshold, judged
	// on the newest sample only.
	if cfg.HeartbeatGapSec > 0 {
		for _, c := range last.Clients {
			if c.Busy && last.TSec-c.LastHeartbeatSec > cfg.HeartbeatGapSec {
				out = append(out, Alert{
					Rule: RuleHeartbeatGap, Subject: fmt.Sprintf("client %d", c.ID),
					Client: c.ID, TSec: last.TSec,
					Detail: fmt.Sprintf("client %d busy but silent for %.1fs",
						c.ID, last.TSec-c.LastHeartbeatSec),
				})
			}
		}
	}
	return out
}

// windowStart finds the earliest sample index whose span to the newest
// sample covers windowSec. ok is false when the history is still too
// short to judge the rule, which keeps rules quiet during warm-up.
func windowStart(win []Sample, windowSec float64) (int, bool) {
	last := win[len(win)-1].TSec
	if last-win[0].TSec < windowSec {
		return 0, false
	}
	i := 0
	for i+1 < len(win) && last-win[i+1].TSec >= windowSec {
		i++
	}
	return i, true
}

// windowTail is the suffix of the ring the rules judge: every sample
// within windowSec of the newest, plus the one before as the baseline
// windowStart needs.
func windowTail(samples []Sample, windowSec float64) []Sample {
	if len(samples) == 0 {
		return nil
	}
	last := samples[len(samples)-1].TSec
	i := len(samples) - 1
	for i > 0 && last-samples[i-1].TSec <= windowSec {
		i--
	}
	return samples[max(i-1, 0):]
}

// watchdog is the stateful wrapper: each tick it runs the pure evaluator
// over the tail of the master's ring and applies per-(rule,subject)
// cooldown so a persistent condition produces one alert per cooldown
// period, not one per tick. Owned by a single goroutine (the master event
// loop or the DES monitor); the alert feed is read through copies.
type watchdog struct {
	cfg       WatchdogConfig
	lastFired map[string]float64
	alerts    []Alert // retained feed, newest last, capped
}

const watchdogFeedCap = 256

func newWatchdog(cfg WatchdogConfig) *watchdog {
	return &watchdog{cfg: cfg.withDefaults(), lastFired: make(map[string]float64)}
}

// observe judges the ring, whose newest sample is this tick's, and returns
// the alerts that newly fired (cooldown-filtered).
func (w *watchdog) observe(samples []Sample) []Alert {
	var fired []Alert
	for _, a := range evalWatchdog(w.cfg, windowTail(samples, w.cfg.maxWindowSec())) {
		key := a.Rule + "|" + a.Subject
		if t, ok := w.lastFired[key]; ok && a.TSec-t < w.cfg.CooldownSec {
			continue
		}
		w.lastFired[key] = a.TSec
		fired = append(fired, a)
	}
	if len(fired) > 0 {
		w.alerts = append(w.alerts, fired...)
		if n := len(w.alerts) - watchdogFeedCap; n > 0 {
			w.alerts = append(w.alerts[:0], w.alerts[n:]...)
		}
	}
	return fired
}

// feed returns a copy of the retained alert feed, oldest first.
func (w *watchdog) feed() []Alert {
	out := make([]Alert, len(w.alerts))
	copy(out, w.alerts)
	return out
}
