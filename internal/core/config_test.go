package core

import (
	"reflect"
	"strings"
	"testing"

	"gridsat/internal/solver"
)

// TestConfigSurface pins the tunable surface: the fields of the master's,
// the client's and the engine's configurations, of the two shells that hold
// them, and of the structs one level down (Admission, BatchPlan, SimJob,
// FailurePlan). A knob added, removed or renamed shows up in this table's
// diff. Run with -v it logs the counts (CI's line-count artifact records
// them).
func TestConfigSurface(t *testing.T) {
	total := 0
	for _, tc := range []struct {
		v    any
		want string
	}{
		{MasterConfig{}, "Transport ListenAddr Formula MinMemBytes Timeout ExpectedClients Metrics Logger " +
			"MetricsAddr Flight Admission BundleDir"},
		{ClientConfig{}, "Transport MasterAddr ListenAddr HostName FreeMemBytes SpeedHint ShareMaxLen " +
			"MinRunTime SplitStrategy Threads SolverOptions Flight"},
		{RunnerConfig{}, "Grid Master Client Jobs TimeoutVSec MaxClients Batch " +
			"Failures MonitorPeriodVSec Watchdog MigrationFactor Seed"},
		{JobConfig{}, "Clients Threads Timeout Master Client"},
		{solver.Options{}, "DecayInterval RestartBase RestartPolicy ShareMaxLen OnLearn PruneLevel0 " +
			"MaxLearnts Reduce MinimizeLearnts PhaseSaving Seed Phase DecisionOverride OnLemma"},
		{Admission{}, "MaxActive MemBudgetBytes"},
		{BatchPlan{}, "Nodes WalltimeVSec MeanQueueWaitVSec"},
		{SimJob{}, "Name Formula Priority ArrivalVSec CancelVSec"},
		{FailurePlan{}, "HostID AtVSec"},
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
