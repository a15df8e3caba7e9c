package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/obs"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// dumpFlight writes the flight log next to the test binary (or into
// GRIDSAT_FLIGHT_DIR when set) so a failed CI run ships the full causal
// record as an artifact instead of a bare assertion message.
func dumpFlight(t *testing.T, f *trace.Flight) {
	t.Helper()
	if !t.Failed() || f == nil {
		return
	}
	dir := os.Getenv("GRIDSAT_FLIGHT_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	_ = os.MkdirAll(dir, 0o755)
	path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".flight.jsonl")
	out, err := os.Create(path)
	if err != nil {
		t.Logf("flight dump failed: %v", err)
		return
	}
	defer out.Close()
	if err := f.WriteJSONL(out); err != nil {
		t.Logf("flight dump failed: %v", err)
		return
	}
	t.Logf("flight log dumped to %s (%d events)", path, f.Len())
}

func TestLiveSolveSharedFlight(t *testing.T) {
	f := trace.NewFlight(nil)
	res, err := Solve(gen.Pigeonhole(7), JobConfig{
		Clients: 3,
		Timeout: 30 * time.Second,
		Master:  MasterConfig{Flight: f},
		Client:  ClientConfig{MinRunTime: 10 * time.Millisecond},
	})
	defer dumpFlight(t, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("status = %v", res.Status)
	}
	evs := f.Events()
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("live flight log invalid: %v", err)
	}
	counts := trace.Summarize(evs).PerKind
	if counts[trace.FEvClientJoin] != 3 {
		t.Fatalf("client-join events = %d, want 3", counts[trace.FEvClientJoin])
	}
	if v := trace.Summarize(evs).Verdict; v != "UNSAT" {
		t.Fatalf("flight verdict %q", v)
	}
	// Live envelopes carry Lamport stamps: at least one event must have
	// merged a remote clock (its Lamport jumps by more than 1).
	jumped := false
	for i := 1; i < len(evs); i++ {
		if evs[i].Lamport > evs[i-1].Lamport+1 {
			jumped = true
			break
		}
	}
	if !jumped {
		t.Error("no Lamport merges observed; traced envelopes likely not flowing")
	}
}

// TestLiveTraceEndpoints checks a running master serves the flight log
// over HTTP in all four forms. Same held-back-client trick as
// TestLiveMetricsEndpoint: the master waits for a fourth client, so the
// endpoints stay up while we fetch.
func TestLiveTraceEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	fl := trace.NewFlight(nil)
	m, done := serveMaster(t, MasterConfig{Transport: comm.Instrument(comm.NewInprocTransport(), comm.NewMetrics(reg)),
		Formula: gen.Pigeonhole(8), ExpectedClients: 4, Metrics: reg, MetricsAddr: "127.0.0.1:0", Flight: fl})
	addr := m.MetricsAddr()
	if addr == "" {
		t.Fatal("master bound no metrics address")
	}
	wg := serveClients(t, m, 3, ClientConfig{Flight: fl})

	fetch := func(path string) string {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + path)
			if err == nil {
				b := new(bytes.Buffer)
				_, _ = b.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && b.Len() > 0 {
					return b.String()
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("never fetched %s", path)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// /trace: schema-valid JSONL of whatever has happened so far.
	raw := fetch("/trace")
	evs, err := trace.ReadJSONL(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("/trace is not flight JSONL: %v", err)
	}
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("/trace log invalid: %v", err)
	}
	// /trace.json: a Perfetto document.
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(fetch("/trace.json")), &doc); err != nil {
		t.Fatalf("/trace.json is not trace-event JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/trace.json has no events")
	}
	// /tree and /tree.dot: the lineage views.
	var treeDoc struct {
		Nodes int `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(fetch("/tree")), &treeDoc); err != nil {
		t.Fatalf("/tree is not JSON: %v", err)
	}
	if !strings.HasPrefix(fetch("/tree.dot"), "digraph lineage {") {
		t.Error("/tree.dot is not a DOT graph")
	}
	// /status surfaces the flight length.
	var snap ClusterState
	if err := json.Unmarshal([]byte(fetch("/status")), &snap); err != nil {
		t.Fatalf("/status: %v", err)
	}
	if snap.FlightEvents == 0 {
		t.Error("/status reports zero flight events mid-run")
	}

	wg4 := serveClients(t, m, 1, ClientConfig{HostName: "host-3", Flight: fl})
	res := (<-done).res
	wg.Wait()
	wg4.Wait()
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run ended %v", res.Status)
	}
	if err := trace.Validate(fl.Events()); err != nil {
		t.Fatalf("final flight log invalid: %v", err)
	}
}
