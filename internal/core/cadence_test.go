package core

import (
	"testing"
	"time"

	"gridsat/internal/gen"
	"gridsat/internal/trace"
)

// TestLiveCadence: a client built by NewClient slices by liveSliceConflicts
// conflicts and heartbeats every liveHeartbeatEvery-th slice, so while it
// searches alone (nothing to split, nothing to cut a slice short) every
// conflict total the master has heard is a whole number of heartbeats.
func TestLiveCadence(t *testing.T) {
	const perHeartbeat = liveSliceConflicts * liveHeartbeatEvery
	if perHeartbeat != 2000*8 {
		t.Fatalf("live cadence is %d conflicts a heartbeat, want 2,000-conflict slices, every 8th reported", perHeartbeat)
	}
	m, done := serveMaster(t, MasterConfig{})
	wg := serveClients(t, m, 1, ClientConfig{FreeMemBytes: 1 << 40, MinRunTime: time.Hour})
	if _, err := m.Submit("hard", gen.Pigeonhole(12), 1); err != nil {
		t.Fatal(err)
	}
	heard := map[int64]bool{}
	for deadline := time.Now().Add(time.Minute); len(heard) < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("heard conflict totals %v in a minute, want two heartbeats", heard)
		}
		st, err := m.State()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Clients) != 1 {
			continue
		}
		if n := st.Clients[0].Conflicts; n > 0 {
			if n%perHeartbeat != 0 {
				t.Fatalf("master heard %d conflicts: not a whole number of %d-conflict heartbeats", n, perHeartbeat)
			}
			heard[n] = true
		}
	}
	m.Shutdown()
	<-done
	wg.Wait()
}

// TestDESCadence: a client the DES launches slices by quantumProps
// propagations and heartbeats every slice, so each heartbeat reports one
// quantum's propagations (a propagation pass may overrun the budget by a
// few; a slice that ends in the verdict is shorter).
func TestDESCadence(t *testing.T) {
	fl := trace.NewFlight(nil)
	cfg := desConfig(gen.Pigeonhole(9), 100)
	cfg.MaxClients = 1
	cfg.Master.Flight = fl
	RunDistributed(cfg)
	beats := 0
	for _, ev := range fl.Events() {
		if ev.Kind != trace.FEvHeartbeat {
			continue
		}
		beats++
		if ev.N < quantumProps || ev.N >= quantumProps+quantumProps/10 {
			t.Errorf("heartbeat %d reports %d propagations, want one %d-propagation slice", beats, ev.N, quantumProps)
		}
	}
	if beats < 5 {
		t.Fatalf("%d heartbeats in 100 vsec, want one a slice", beats)
	}
}
