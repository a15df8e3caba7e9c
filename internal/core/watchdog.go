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

// The rule thresholds, documented in DESIGN.md. They are read as wall
// seconds in the live master and virtual seconds in the DES.
const (
	// progress-stall fires when cluster coverage is flat across a window
	// of at least stallWindowSec while >= stallMinBusy clients stayed busy
	// the whole time.
	stallWindowSec = 60
	stallMinBusy   = 1
	// straggler-persist fires when the same client is marked a straggler
	// in every sample across the window.
	stragglerWindowSec = 45
	// mem-pressure fires when cluster memory grew by at least
	// memGrowthFactor across the window and the current total is at least
	// memMinBytes (the floor keeps tiny absolute growth from alerting at
	// startup).
	memWindowSec    = 120
	memGrowthFactor = 1.5
	memMinBytes     = 256 << 20
	// heartbeat-gap fires when a busy client has not reported for this
	// long.
	heartbeatGapSec = 15
	// cooldownSec suppresses re-firing the same (rule, subject) pair until
	// this much time has passed since it last fired.
	cooldownSec = 60
	// maxWindowSec is the widest span any rule looks back over, i.e. how
	// much of the ring the watchdog must find retained.
	maxWindowSec = max(stallWindowSec, stragglerWindowSec, memWindowSec, heartbeatGapSec)
)

// watchdogThresholds is how a bundle's config.json records the constants.
type watchdogThresholds struct {
	StallWindowSec     float64 `json:"stall_window_sec"`
	StallMinBusy       int     `json:"stall_min_busy"`
	StragglerWindowSec float64 `json:"straggler_window_sec"`
	MemWindowSec       float64 `json:"mem_window_sec"`
	MemGrowthFactor    float64 `json:"mem_growth_factor"`
	MemMinBytes        int64   `json:"mem_min_bytes"`
	HeartbeatGapSec    float64 `json:"heartbeat_gap_sec"`
	CooldownSec        float64 `json:"cooldown_sec"`
}

var bundleThresholds = watchdogThresholds{stallWindowSec, stallMinBusy, stragglerWindowSec,
	memWindowSec, memGrowthFactor, memMinBytes, heartbeatGapSec, cooldownSec}

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
func evalWatchdog(win []Sample) []Alert {
	if len(win) == 0 {
		return nil
	}
	var out []Alert
	last := win[len(win)-1]

	// progress-stall: coverage flat over the stall window while enough
	// clients stayed busy for the whole span.
	if i, ok := windowStart(win, stallWindowSec); ok {
		flat, busyAll := true, true
		for _, s := range win[i:] {
			if s.Coverage > win[i].Coverage+1e-12 {
				flat = false
			}
			if s.Busy < stallMinBusy {
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

	// straggler-persist: the same client flagged in every sample across
	// the straggler window.
	if i, ok := windowStart(win, stragglerWindowSec); ok {
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

	// mem-pressure: cluster memory grew by the factor over the window
	// and is above the absolute floor.
	if i, ok := windowStart(win, memWindowSec); ok {
		base := win[i].MemBytes
		if last.MemBytes >= memMinBytes && base > 0 &&
			float64(last.MemBytes) >= memGrowthFactor*float64(base) {
			out = append(out, Alert{
				Rule: RuleMemPressure, Subject: "cluster", TSec: last.TSec,
				Detail: fmt.Sprintf("cluster memory %d -> %d bytes (%.2fx) over %.0fs",
					base, last.MemBytes, float64(last.MemBytes)/float64(base),
					last.TSec-win[i].TSec),
			})
		}
	}

	// heartbeat-gap: a busy client silent past the gap threshold, judged
	// on the newest sample only.
	for _, c := range last.Clients {
		if c.Busy && last.TSec-c.LastHeartbeatSec > heartbeatGapSec {
			out = append(out, Alert{
				Rule: RuleHeartbeatGap, Subject: fmt.Sprintf("client %d", c.ID),
				Client: c.ID, TSec: last.TSec,
				Detail: fmt.Sprintf("client %d busy but silent for %.1fs",
					c.ID, last.TSec-c.LastHeartbeatSec),
			})
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
	lastFired map[string]float64
	alerts    []Alert // retained feed, newest last, capped
}

const watchdogFeedCap = 256

func newWatchdog() *watchdog {
	return &watchdog{lastFired: make(map[string]float64)}
}

// observe judges the ring, whose newest sample is this tick's, and returns
// the alerts that newly fired (cooldown-filtered).
func (w *watchdog) observe(samples []Sample) []Alert {
	var fired []Alert
	for _, a := range evalWatchdog(windowTail(samples, maxWindowSec)) {
		key := a.Rule + "|" + a.Subject
		if t, ok := w.lastFired[key]; ok && a.TSec-t < cooldownSec {
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
