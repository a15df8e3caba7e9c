package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"gridsat/internal/trace"
)

// Postmortem black-box bundles: when a job fails or is cancelled, a
// watchdog rule fires, or an operator POSTs /debug/bundle, the master
// writes a self-contained directory that captures everything needed to
// diagnose the run offline — the flight-log tail, pprof captures, the
// metrics snapshot and the ring of samples, a scheduler + per-client state
// dump, and the effective config. The DES shell writes the same bundle inline, without
// the CPU capture, so bundles are deterministic and testable.

// bundleEventTail bounds the flight-log section: the newest events are
// the ones a postmortem needs, and a long-lived service's full log can
// be huge.
const bundleEventTail = 2000

// BundleSpec is everything a bundle captures. All fields are plain data
// copied out of the owning loop before writing, so writing can happen
// off the event loop.
type BundleSpec struct {
	Dir     string // parent directory (created if missing)
	Name    string // bundle subdirectory name; must be unique per bundle
	Reason  string // what triggered the capture
	TSec    float64
	Config  any            // effective configuration
	State   any            // scheduler + per-client state dump
	Metrics any            // registry snapshot (nil = section records null)
	History []Sample       // the master's ring of samples, oldest first
	Alerts  []Alert        // watchdog alert feed at capture time
	Events  []trace.FEvent // flight log (tail is taken here)
	// CPUProfileDur captures a CPU profile of this length into
	// pprof/cpu.pprof. 0 skips it — the DES skips it so bundle contents
	// stay deterministic and writing stays instant.
	CPUProfileDur time.Duration
}

// bundleManifest indexes a written bundle.
type bundleManifest struct {
	Reason   string   `json:"reason"`
	TSec     float64  `json:"t_sec"`
	Events   int      `json:"events"`
	Samples  int      `json:"samples"`
	Alerts   int      `json:"alerts"`
	Sections []string `json:"sections"`
	Errors   []string `json:"errors,omitempty"`
}

// WriteBundle writes the bundle directory and returns its path. The
// five sections are flight.jsonl, pprof/, metrics.json + history.json,
// state.json, and config.json; MANIFEST.json indexes them. Best-effort:
// a section that fails to capture (e.g. a CPU profile already running)
// is recorded in the manifest's errors rather than failing the bundle.
func WriteBundle(spec BundleSpec) (string, error) {
	dir := filepath.Join(spec.Dir, spec.Name)
	if err := os.MkdirAll(filepath.Join(dir, "pprof"), 0o755); err != nil {
		return "", err
	}
	man := bundleManifest{
		Reason:  spec.Reason,
		TSec:    spec.TSec,
		Samples: len(spec.History),
		Alerts:  len(spec.Alerts),
	}
	section := func(name string, err error) {
		if err != nil {
			man.Errors = append(man.Errors, fmt.Sprintf("%s: %v", name, err))
			return
		}
		man.Sections = append(man.Sections, name)
	}

	// Section 1: flight-log tail.
	events := spec.Events
	if len(events) > bundleEventTail {
		events = events[len(events)-bundleEventTail:]
	}
	man.Events = len(events)
	section("flight.jsonl", writeBundleFile(dir, "flight.jsonl", func(f *os.File) error {
		return trace.WriteJSONL(f, events)
	}))

	// Section 2: pprof captures. Heap always; CPU only when a duration
	// is configured (the capture blocks for that long).
	section("pprof/heap.pprof", writeBundleFile(dir, "pprof/heap.pprof", func(f *os.File) error {
		return pprof.Lookup("heap").WriteTo(f, 0)
	}))
	if spec.CPUProfileDur > 0 {
		section("pprof/cpu.pprof", writeBundleFile(dir, "pprof/cpu.pprof", func(f *os.File) error {
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			time.Sleep(spec.CPUProfileDur)
			pprof.StopCPUProfile()
			return nil
		}))
	}

	// Section 3: metrics snapshot + the ring of samples.
	section("metrics.json", writeBundleJSON(dir, "metrics.json", spec.Metrics))
	section("history.json", writeBundleJSON(dir, "history.json", historyResponse{spec.History}))

	// Section 4: scheduler + per-client state, with the alert feed.
	section("state.json", writeBundleJSON(dir, "state.json", struct {
		State  any     `json:"state"`
		Alerts []Alert `json:"alerts"`
	}{spec.State, spec.Alerts}))

	// Section 5: effective configuration.
	section("config.json", writeBundleJSON(dir, "config.json", spec.Config))

	if err := writeBundleJSON(dir, "MANIFEST.json", man); err != nil {
		return "", err
	}
	return dir, nil
}

func writeBundleFile(dir, name string, fill func(*os.File) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeBundleJSON(dir, name string, v any) error {
	return writeBundleFile(dir, name, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
