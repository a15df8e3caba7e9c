package core

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/obs"
	"gridsat/internal/solver"
)

// promSample matches one Prometheus exposition sample line.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[-+]?(Inf|[0-9.eE+-]+))$`)

// checkPromText asserts body parses as Prometheus text format 0.0.4.
func checkPromText(t *testing.T, body string) {
	t.Helper()
	n := 0
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
		n++
	}
	if n == 0 {
		t.Error("exposition contained no samples")
	}
}

// TestJobMetricsAndReport covers the Solve-level wiring end to end: the
// instrumented transport fills Result.Comm, heartbeat deltas fill the final
// state's client rows, the registry carries matching series, job 0's row is
// the run's verdict, and the state — the body of the -report file —
// round-trips through JSON.
func TestJobMetricsAndReport(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := quickJob(4)
	cfg.Master.Metrics = reg
	f := gen.Pigeonhole(8)
	res, err := Solve(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v", res.Status)
	}

	// Wire traffic was measured per kind and direction.
	if res.Comm.MsgsSent == 0 || res.Comm.BytesSent == 0 {
		t.Fatalf("no traffic recorded: %+v", res.Comm)
	}
	if res.Comm.PerKind["register"].MsgsSent < 4 {
		t.Errorf("register msgs = %d, want >= one per client", res.Comm.PerKind["register"].MsgsSent)
	}
	if res.Comm.PerKind["split-payload"].BytesSent == 0 {
		t.Error("split payloads moved but no bytes counted")
	}

	// Heartbeat deltas aggregated into per-client totals.
	if len(res.State.Clients) == 0 {
		t.Fatal("no per-client aggregates in the result")
	}
	var decisions, conflicts int64
	for _, c := range res.State.Clients {
		decisions += c.Decisions
		conflicts += c.Conflicts
	}
	if decisions == 0 || conflicts == 0 {
		t.Errorf("aggregated decisions=%d conflicts=%d, want both > 0", decisions, conflicts)
	}

	// The registry agrees with the Result.
	snap := reg.Snapshot()
	if v := snap.CounterValue("gridsat_master_splits_total"); v != int64(res.State.Splits) {
		t.Errorf("registry splits %d != result %d", v, res.State.Splits)
	}
	if v := snap.CounterValue("gridsat_master_shared_clauses_total"); v != int64(res.State.Shared) {
		t.Errorf("registry shared %d != result %d", v, res.State.Shared)
	}
	if v := snap.CounterValue("gridsat_client_decisions_total"); v != decisions {
		t.Errorf("registry client decisions %d != result %d", v, decisions)
	}
	if v := snap.CounterValue("gridsat_comm_msgs_total"); v != res.Comm.MsgsSent+res.Comm.MsgsRecv {
		t.Errorf("registry comm msgs %d != totals %d", v, res.Comm.MsgsSent+res.Comm.MsgsRecv)
	}

	// The final state is job 0's record: its verdict and lifecycle.
	if len(res.State.Jobs) != 1 {
		t.Fatalf("final state has %d job rows, want job 0 alone", len(res.State.Jobs))
	}
	j0 := res.State.Jobs[0]
	if j0.ID != 0 || j0.Verdict != res.Status.String() || j0.State != "done" {
		t.Errorf("job 0 row %+v, want done with verdict %s", j0, res.Status)
	}
	if j0.TurnaroundSec <= 0 || j0.FirstAssignAt < j0.SubmittedAt || j0.FinishedAt <= j0.StartedAt {
		t.Errorf("job 0 lifecycle %+v is not ordered", j0)
	}
	if res.State.Verdict != res.Status.String() || res.State.WallSeconds <= 0 {
		t.Errorf("final state verdict %q at %vs, want %s after a positive wall", res.State.Verdict, res.State.WallSeconds, res.Status)
	}

	// The -report file's "state" key is this value: it round-trips through
	// JSON, and the moved keys are where README says.
	buf, err := json.Marshal(res.State)
	if err != nil {
		t.Fatal(err)
	}
	var back ClusterState
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("state does not round-trip: %v", err)
	}
	if !reflect.DeepEqual(back, res.State) {
		t.Errorf("state after a JSON round trip:\n%+v\nwant\n%+v", back, res.State)
	}
	var keys struct {
		Splits  *int `json:"splits"`
		Shared  *int `json:"shared"`
		Clients []map[string]any
		Jobs    []map[string]any
	}
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	if keys.Splits == nil || *keys.Splits != res.State.Splits || keys.Shared == nil || *keys.Shared != res.State.Shared ||
		len(keys.Clients) != len(res.State.Clients) || len(keys.Jobs) != 1 {
		t.Errorf("state JSON keys %+v disagree with the result", keys)
	}
	for _, k := range []string{"verdict", "first_assign_at", "queue_wait_sec", "solve_sec", "turnaround_sec"} {
		if _, ok := keys.Jobs[0][k]; !ok {
			t.Errorf("state.jobs[0] has no %q key: %v", k, keys.Jobs[0])
		}
	}
}

// TestLiveMetricsEndpoint is the acceptance check for the HTTP layer:
// scrape a running master's /metrics over real HTTP mid-run and require
// Prometheus-parseable text carrying the comm, master and per-client
// series; then check /status serves the JSON snapshot. The master expects
// one more client than the test launches up front, so the run is
// guaranteed to still be alive while scraping regardless of how fast the
// solver finishes; the held-back client is released once the scrape
// succeeds.
func TestLiveMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	cm := comm.NewMetrics(reg)
	tr := comm.Instrument(comm.NewInprocTransport(), cm)
	f := gen.Pigeonhole(8)
	m, err := NewMaster(MasterConfig{
		Transport:       tr,
		ListenAddr:      "master",
		Formula:         f,
		Timeout:         60 * time.Second,
		ExpectedClients: 4,
		Metrics:         reg,
		MetricsAddr:     "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := m.MetricsAddr()
	if addr == "" {
		t.Fatal("master bound no metrics address")
	}

	done := make(chan Result, 1)
	go func() {
		res, _ := m.Run()
		done <- res
	}()
	var wg sync.WaitGroup
	launch := func(i int) {
		cl, err := NewClient(ClientConfig{
			Transport:      tr,
			MasterAddr:     "master",
			HostName:       fmt.Sprintf("host-%d", i),
			FreeMemBytes:   64 << 20,
			SliceConflicts: 200,
			MinRunTime:     5 * time.Millisecond,
			HeartbeatEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = cl.Run() }()
	}
	for i := 0; i < 3; i++ {
		launch(i)
	}

	// Scrape until a body carries every expected series. The master is
	// still waiting for its fourth client, so the endpoint stays up.
	want := []string{
		"gridsat_comm_msgs_total",
		"gridsat_comm_bytes_total",
		"gridsat_master_splits_total",
		"gridsat_master_shared_clauses_total",
		"gridsat_master_registered_clients",
		"gridsat_client_mem_bytes",
	}
	var best string
	deadline := time.Now().Add(30 * time.Second)
	for best == "" {
		if time.Now().After(deadline) {
			t.Fatal("never scraped a body containing all expected series")
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body := string(b)
		ok := true
		for _, w := range want {
			if !strings.Contains(body, w) {
				ok = false
				break
			}
		}
		if ok {
			best = body
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	checkPromText(t, best)

	// /status must serve the consistent JSON snapshot while live.
	sresp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatalf("/status: %v", err)
	}
	var snap ClusterState
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Errorf("/status is not JSON: %v", err)
	}
	sresp.Body.Close()
	if snap.Registered != 3 {
		t.Errorf("/status snapshot shows %d registered clients, want 3", snap.Registered)
	}

	// Release the held-back client and let the run finish.
	launch(3)
	res := <-done
	wg.Wait()
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run ended %v", res.Status)
	}
}

// TestStatusShowsPerClientReclamation drives the master with a hand-rolled
// client connection whose heartbeats carry ReclaimedBytes deltas (what a
// real client reports after ShedMemory frees arena space) and checks the
// figures surface in both views: the /status snapshot's per-client
// reclaimed_bytes total and, once a sampler tick has published it, the
// per-client registry counter behind /metrics. Deltas from successive
// heartbeats must sum.
func TestStatusShowsPerClientReclamation(t *testing.T) {
	reg := obs.NewRegistry()
	tr := comm.NewInprocTransport()
	f := gen.Pigeonhole(6)
	m, err := NewMaster(MasterConfig{
		Transport:       tr,
		ListenAddr:      "reclaim-master",
		Formula:         f,
		Timeout:         60 * time.Second,
		ExpectedClients: 1,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	go m.Run()

	conn, err := tr.Dial("reclaim-master")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(comm.Register{Addr: "fake-peer", HostName: "h0", FreeMemBytes: 64 << 20, SpeedHint: 1}); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	ra, ok := ack.(comm.RegisterAck)
	if !ok || ra.Rejected {
		t.Fatalf("registration failed: %#v", ack)
	}
	// Drain the master's pushes (base problem, initial assignment) so its
	// writer never blocks.
	go func() {
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()

	for _, delta := range []int64{100_000, 23_456} {
		if err := conn.Send(comm.StatusReport{
			MemBytes: 1 << 20,
			Deltas:   comm.SolverDeltas{Conflicts: 10, ReclaimedBytes: delta},
		}); err != nil {
			t.Fatal(err)
		}
	}

	const want = int64(100_000 + 23_456)
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, _ := m.State()
		var got int64
		for _, c := range snap.Clients {
			if c.ID == ra.ClientID {
				got = c.ReclaimedBytes
			}
		}
		if got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/status reclaimed_bytes = %d, want %d (snapshot %+v)", got, want, snap.Clients)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The registry is published at the sampler's tick, so it catches up
	// within a second.
	label := obs.L("client", fmt.Sprintf("%d", ra.ClientID))
	for {
		v := reg.Snapshot().CounterValue("gridsat_client_arena_reclaimed_bytes_total", label)
		if v == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry per-client reclaimed counter = %d, want %d", v, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSimTrafficCounters checks the DES runner totals every modeled
// transfer, mirroring the live transport instrumentation.
func TestSimTrafficCounters(t *testing.T) {
	res := RunDistributed(desConfig(gen.Pigeonhole(8), 10_000))
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v/%v", res.Outcome, res.Status)
	}
	if res.Msgs == 0 || res.Bytes == 0 {
		t.Fatalf("sim recorded msgs=%d bytes=%d, want both > 0", res.Msgs, res.Bytes)
	}
	if res.Bytes < res.Msgs {
		t.Errorf("bytes (%d) < msgs (%d): every message has a positive size", res.Bytes, res.Msgs)
	}
}
