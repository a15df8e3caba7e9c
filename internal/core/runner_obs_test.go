package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridsat/internal/gen"
	"gridsat/internal/trace"
)

// desStallConfig builds a run that deterministically stalls: one client
// on a hard UNSAT instance never splits, so cluster coverage stays flat
// at zero until the virtual-time budget runs out. The budget ends the run
// before the progress-stall cooldown would let the rule fire again.
func desStallConfig(bundleDir string) RunnerConfig {
	cfg := desConfig(gen.Pigeonhole(10), 100)
	cfg.MaxClients = 1
	cfg.MonitorPeriodVSec = 5
	cfg.Watchdog = true
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
	var hist historyResponse
	if err := json.Unmarshal(raw, &hist); err != nil {
		t.Fatal(err)
	}
	samples := hist.Samples
	if len(samples) < 13 { // 60 vsec window at 5 vsec cadence, plus warm-up
		t.Fatalf("bundle history has %d samples, want the stall window", len(samples))
	}
	for _, s := range samples {
		if s.Coverage != 0 {
			t.Fatalf("coverage moved (%v at t=%v); stall was not a stall", s.Coverage, s.TSec)
		}
	}
	if span := samples[len(samples)-1].TSec - samples[0].TSec; span < stallWindowSec {
		t.Fatalf("history window %v vsec shorter than the stall window", span)
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

// TestDESWatchdogNilIsOff pins the gate: without the watchdog the run
// produces no alerts, no bundles, and (critically) a flight log
// byte-identical to a pre-observability run.
func TestDESWatchdogNilIsOff(t *testing.T) {
	run := func(wd bool, bundleDir string) ([]trace.FEvent, SimResult) {
		fl := trace.NewFlight(nil)
		cfg := desConfig(gen.Pigeonhole(8), 10_000)
		cfg.MonitorPeriodVSec = 5
		cfg.Watchdog = wd
		cfg.Master.BundleDir = bundleDir
		cfg.Master.Flight = fl
		return fl.Events(), RunDistributed(cfg)
	}
	offEvents, offRes := run(false, "")
	if offRes.Alerts != nil || offRes.Bundles != nil {
		t.Fatalf("watchdog-off run produced alerts/bundles: %+v %+v",
			offRes.Alerts, offRes.Bundles)
	}
	// A healthy solved run with the watchdog armed fires nothing and —
	// because no anomaly events land — keeps the same event stream.
	onEvents, onRes := run(true, t.TempDir())
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
