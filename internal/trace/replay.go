package trace

import "fmt"

// This file is the deterministic replay verifier. A DES run is a pure
// function of its configuration and seed, so re-driving the same
// configuration must reproduce the recorded flight log event for event —
// same kinds, clients, stamps and details, in the same order. A divergence
// means nondeterminism leaked into the simulation (map iteration, wall
// clocks, unseeded randomness), which is exactly the class of bug that
// makes distributed solver results unreproducible.

// ReplayVerify re-runs a recorded scenario and checks the fresh flight log
// against the recorded one. The rerun closure receives an empty recorder
// and must drive the same deterministic run that produced `recorded` (the
// caller owns reconstructing the configuration; this package never imports
// the runtime). Returns nil when the replay matches.
func ReplayVerify(recorded []FEvent, rerun func(*Flight) error) error {
	if err := Validate(recorded); err != nil {
		return fmt.Errorf("recorded log invalid: %w", err)
	}
	f := NewFlight(nil)
	if err := rerun(f); err != nil {
		return fmt.Errorf("replay run failed: %w", err)
	}
	replayed := f.Events()
	if err := Validate(replayed); err != nil {
		return fmt.Errorf("replayed log invalid: %w", err)
	}
	return CompareLogs(recorded, replayed)
}

// CompareLogs checks that two flight logs record the same run, event for
// event and field for field, and names the first event where they part.
func CompareLogs(recorded, replayed []FEvent) error {
	for i := range max(len(recorded), len(replayed)) {
		var r, p *FEvent
		if i < len(recorded) {
			r = &recorded[i]
		}
		if i < len(replayed) {
			p = &replayed[i]
		}
		if r == nil || p == nil || *r != *p {
			return fmt.Errorf("trace: replay diverged from recording at event %d of %d/%d:\n  recorded %s\n  replayed %s",
				i+1, len(recorded), len(replayed), showEvent(r), showEvent(p))
		}
	}
	return nil
}

// showEvent renders one side of a divergence; nil is a log that ended.
func showEvent(ev *FEvent) string {
	if ev == nil {
		return "(end of log)"
	}
	return fmt.Sprintf("%+v", *ev)
}
