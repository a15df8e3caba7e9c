package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridsat/internal/gen"
	"gridsat/internal/obs/history"
	"gridsat/internal/trace"
)

// desStallConfig builds a run that deterministically stalls: one client
// on a hard UNSAT instance never splits, so cluster coverage stays flat
// at zero until the virtual-time budget runs out. Only the
// progress-stall rule is armed; the huge cooldown pins the alert count
// at one.
func desStallConfig(bundleDir string) RunnerConfig {
	cfg := desConfig(gen.Pigeonhole(10), 100)
	cfg.MaxClients = 1
	cfg.MonitorPeriodVSec = 5
	cfg.Master.Watchdog = &WatchdogConfig{
		StallWindowSec:     30,
		StallMinBusy:       1,
		StragglerWindowSec: -1,
		MemWindowSec:       -1,
		HeartbeatGapSec:    -1,
		CooldownSec:        1e9,
	}
	cfg.Master.BundleDir = bundleDir
	return cfg
}

// TestDESWatchdogStallEmitsAnomalyAndBundle is the end-to-end anomaly
// path: an injected stall must fire the progress-stall rule, emit an
// FEvAnomaly flight event, surface the alert in the result, and write a
// complete postmortem bundle whose history window shows the flat
// coverage that triggered it.
func TestDESWatchdogStallEmitsAnomalyAndBundle(t *testing.T) {
	dir := t.TempDir()
	fl := trace.NewFlight(nil)
	cfg := desStallConfig(dir)
	cfg.Master.Flight = fl
	res := RunDistributed(cfg)
	if res.Outcome != OutcomeTimeout {
		t.Fatalf("stall run outcome = %v, want TIME_OUT", res.Outcome)
	}

	// The alert surfaced in the result, exactly once (cooldown).
	if len(res.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly one", res.Alerts)
	}
	a := res.Alerts[0]
	if a.Rule != RuleProgressStall || a.Subject != "cluster" {
		t.Fatalf("alert = %+v, want cluster progress-stall", a)
	}

	// The flight log carries the anomaly event.
	var anomalies []trace.FEvent
	for _, ev := range fl.Events() {
		if ev.Kind == trace.FEvAnomaly {
			anomalies = append(anomalies, ev)
		}
	}
	if len(anomalies) != 1 {
		t.Fatalf("FEvAnomaly events = %d, want 1", len(anomalies))
	}
	if !strings.HasPrefix(anomalies[0].Detail, RuleProgressStall+": ") {
		t.Fatalf("anomaly detail %q lacks rule prefix", anomalies[0].Detail)
	}

	// One bundle, deterministically named, with every section present. The
	// time-out ends the run, not job 0: no job-0-failed bundle joins it.
	if len(res.Bundles) != 1 {
		t.Fatalf("bundles = %v, want exactly one", res.Bundles)
	}
	b := res.Bundles[0]
	if got := filepath.Base(b); got != "bundle-001-anomaly-progress-stall" {
		t.Fatalf("bundle name = %q", got)
	}
	for _, f := range []string{"flight.jsonl", "pprof/heap.pprof", "metrics.json",
		"history.json", "state.json", "config.json", "MANIFEST.json"} {
		if _, err := os.Stat(filepath.Join(b, f)); err != nil {
			t.Errorf("bundle section %s missing: %v", f, err)
		}
	}
	if _, err := os.Stat(filepath.Join(b, "pprof/cpu.pprof")); err == nil {
		t.Error("DES bundle captured a CPU profile; must stay deterministic")
	}

	// The bundle's history replays the stall: cluster coverage sampled
	// across the watchdog window, flat at zero the whole way.
	raw, err := os.ReadFile(filepath.Join(b, "history.json"))
	if err != nil {
		t.Fatal(err)
	}
	var hist struct {
		Series []history.SeriesDump `json:"series"`
	}
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatal(err)
	}
	var cov *history.SeriesDump
	for i := range hist.Series {
		if hist.Series[i].Name == "cluster.coverage" {
			cov = &hist.Series[i]
		}
	}
	if cov == nil || len(cov.Tiers) == 0 {
		t.Fatalf("bundle history lacks cluster.coverage: %+v", hist.Series)
	}
	pts := cov.Tiers[0].Points
	if len(pts) < 7 { // 30 vsec window at 5 vsec cadence, plus warm-up
		t.Fatalf("coverage series has %d points, want the stall window", len(pts))
	}
	for _, p := range pts {
		if p.V != 0 {
			t.Fatalf("coverage moved (%v at t=%v); stall was not a stall", p.V, p.T)
		}
	}
	if pts[len(pts)-1].T-pts[0].T < cfg.Master.Watchdog.StallWindowSec {
		t.Fatalf("history window %v vsec shorter than the stall window",
			pts[len(pts)-1].T-pts[0].T)
	}

	// The anomaly event replays: an identical config (fresh bundle dir)
	// reproduces the recorded stream, FEvAnomaly included.
	if err := trace.ReplayVerify(fl.Events(), func(f *trace.Flight) error {
		rerun := desStallConfig(t.TempDir())
		rerun.Master.Flight = f
		RunDistributed(rerun)
		return nil
	}); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
}

// TestDESWatchdogNilIsOff pins the gate: without a watchdog config the
// run produces no alerts, no bundles, and (critically) a flight log
// byte-identical to a pre-observability run.
func TestDESWatchdogNilIsOff(t *testing.T) {
	run := func(wd *WatchdogConfig, bundleDir string) ([]trace.FEvent, SimResult) {
		fl := trace.NewFlight(nil)
		cfg := desConfig(gen.Pigeonhole(8), 10_000)
		cfg.MonitorPeriodVSec = 5
		cfg.Master.Watchdog = wd
		cfg.Master.BundleDir = bundleDir
		cfg.Master.Flight = fl
		return fl.Events(), RunDistributed(cfg)
	}
	offEvents, offRes := run(nil, "")
	if offRes.Alerts != nil || offRes.Bundles != nil {
		t.Fatalf("watchdog-off run produced alerts/bundles: %+v %+v",
			offRes.Alerts, offRes.Bundles)
	}
	// A healthy solved run with the watchdog armed fires nothing and —
	// because no anomaly events land — keeps the same event stream.
	onEvents, onRes := run(&WatchdogConfig{}, t.TempDir())
	if len(onRes.Alerts) != 0 {
		t.Fatalf("healthy run fired alerts: %+v", onRes.Alerts)
	}
	if len(onEvents) != len(offEvents) {
		t.Fatalf("event streams diverged: %d vs %d events", len(onEvents), len(offEvents))
	}
	for i := range offEvents {
		if offEvents[i] != onEvents[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, offEvents[i], onEvents[i])
		}
	}
}
