package core

import (
	"reflect"
	"strings"
	"testing"

	"gridsat/internal/solver"
)

// TestConfigSurface pins the tunable surface: the top-level fields of the
// master's, the client's and the engine's configurations and of the two
// shells that hold them. A knob added, removed or renamed shows up in this
// table's diff. Run with -v it logs the counts (CI's line-count artifact
// records them).
func TestConfigSurface(t *testing.T) {
	total := 0
	for _, tc := range []struct {
		v    any
		want string
	}{
		{MasterConfig{}, "Transport ListenAddr Formula MinMemBytes Timeout ExpectedClients Metrics Logger " +
			"MetricsAddr Flight SplitStrategy Admission Watchdog BundleDir"},
		{ClientConfig{}, "Transport MasterAddr ListenAddr HostName FreeMemBytes SpeedHint ShareMaxLen " +
			"SliceConflicts MinRunTime HeartbeatEvery SplitStrategy Threads SolverOptions Flight"},
		{RunnerConfig{}, "Grid Master Client Jobs TimeoutVSec MaxClients Batch " +
			"Failures MonitorPeriodVSec MigrationFactor Seed"},
		{JobConfig{}, "Clients Threads Timeout Master Client"},
		{solver.Options{}, "DecayInterval RestartBase RestartPolicy ShareMaxLen OnLearn PruneLevel0 " +
			"MaxLearnts Reduce MinimizeLearnts PhaseSaving Seed Phase DecisionOverride OnLemma"},
	} {
		ty := reflect.TypeOf(tc.v)
		names := make([]string, ty.NumField())
		for i := range names {
			names[i] = ty.Field(i).Name
		}
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("%s fields:\n got %s\nwant %s", ty, got, tc.want)
		}
		t.Logf("%-20s %2d fields", ty, len(names))
		total += len(names)
	}
	t.Logf("%-20s %2d fields", "total", total)
}
