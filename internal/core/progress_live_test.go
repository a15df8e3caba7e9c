package core

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridsat/internal/gen"
	"gridsat/internal/obs"
	"gridsat/internal/solver"
)

// TestLiveProgressEndpointAndTop drives a live master and checks that
// /status serves a decodable snapshot, coverage included, mid-run, and that
// the dashboard renderer accepts the live payload — the `gridsat top` data
// path end to end. Pigeonhole(9) keeps the cluster busy for long enough
// that polling reliably observes it working.
func TestLiveProgressEndpointAndTop(t *testing.T) {
	m, done := serveMaster(t, MasterConfig{Formula: gen.Pigeonhole(9), ExpectedClients: 3,
		Metrics: obs.NewRegistry(), MetricsAddr: "127.0.0.1:0"})
	addr := m.MetricsAddr()
	if addr == "" {
		t.Fatal("master bound no metrics address")
	}
	wg := serveClients(t, m, 3, ClientConfig{})

	// Poll /status until the cluster is visibly working: all three
	// clients registered and conflicts flowing through heartbeat deltas.
	var snap ClusterState
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/status")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err == nil && snap.Registered == 3 && snap.Busy >= 1 && snap.Conflicts > 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw a working cluster on /status; last: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.Coverage < 0 || snap.Coverage > 1 {
		t.Fatalf("coverage %v out of range", snap.Coverage)
	}
	if len(snap.Clients) != 3 {
		t.Fatalf("client rows = %d, want 3", len(snap.Clients))
	}
	busyRows := 0
	for _, c := range snap.Clients {
		if c.Busy {
			busyRows++
		}
		if c.Depth < 0 {
			t.Fatalf("client %d has negative depth", c.ID)
		}
	}
	if busyRows != snap.Busy || len(snap.Jobs) != 1 {
		t.Fatalf("busy rows %d disagree with snapshot busy %d, or %d job rows",
			busyRows, snap.Busy, len(snap.Jobs))
	}

	// Render it like `gridsat top` does.
	frame := RenderTop(snap, nil, TopWidth)
	if !strings.Contains(frame, "GridSAT running") {
		t.Errorf("live frame missing headline:\n%s", frame)
	}
	for i, line := range strings.Split(strings.TrimSuffix(frame, "\n"), "\n") {
		if len(line) != TopWidth {
			t.Fatalf("live frame line %d is %d columns", i+1, len(line))
		}
	}

	res := (<-done).res
	wg.Wait()
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run ended %v", res.Status)
	}
}
