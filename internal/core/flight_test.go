package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

func TestDESFlightLogValidatesAndMatchesResult(t *testing.T) {
	f := trace.NewFlight(nil)
	cfg := desConfig(gen.Pigeonhole(8), 10_000)
	cfg.Master.Flight = f
	res := RunDistributed(cfg)
	defer dumpFlight(t, f)
	if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
		t.Fatalf("run failed: %+v", res.Outcome)
	}
	evs := f.Events()
	if err := trace.Validate(evs); err != nil {
		t.Fatalf("flight log invalid: %v", err)
	}
	if got := trace.Summarize(evs).Verdict; got != "UNSAT" {
		t.Fatalf("flight verdict %q, want UNSAT", got)
	}
	counts := trace.Summarize(evs).PerKind
	if counts[trace.FEvRunStart] != 1 || counts[trace.FEvVerdict] != 1 {
		t.Fatalf("run-start/verdict counts wrong: %v", counts)
	}
	if int(counts[trace.FEvSplitAccept]) != res.State.Splits {
		t.Fatalf("split-accept events %d != result splits %d",
			counts[trace.FEvSplitAccept], res.State.Splits)
	}
	if counts[trace.FEvSubUNSAT] == 0 {
		t.Fatal("UNSAT run recorded no sub-unsat events")
	}
	// Every event but the first has a live virtual timestamp horizon.
	if evs[len(evs)-1].VSec <= 0 {
		t.Fatal("events missing virtual time")
	}
	// The JSONL form must round-trip losslessly (the CI artifact is the
	// JSONL file, so it has to carry everything the validator needs).
	var b bytes.Buffer
	if err := f.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(back); err != nil {
		t.Fatalf("JSONL round trip broke the log: %v", err)
	}
}

func TestDESFlightLineageLeafCount(t *testing.T) {
	f := trace.NewFlight(nil)
	cfg := desConfig(gen.Pigeonhole(8), 10_000)
	cfg.Master.Flight = f
	res := RunDistributed(cfg)
	defer dumpFlight(t, f)
	if res.State.Splits == 0 {
		t.Skip("instance solved without splitting; lineage is trivial")
	}
	tree := trace.BuildLineage(f.Events())
	if got := len(tree.Leaves()); got != res.State.Splits+1 {
		t.Fatalf("lineage leaves = %d, want splits+1 = %d", got, res.State.Splits+1)
	}
	if len(tree.Nodes()) != 2*res.State.Splits+1 {
		t.Fatalf("lineage nodes = %d, want 2*splits+1 = %d",
			len(tree.Nodes()), 2*res.State.Splits+1)
	}
}

func TestDESFlightReplayVerify(t *testing.T) {
	mk := func() RunnerConfig {
		cfg := desConfig(gen.Pigeonhole(8), 10_000)
		return cfg
	}
	rec := trace.NewFlight(nil)
	cfg := mk()
	cfg.Master.Flight = rec
	res := RunDistributed(cfg)
	defer dumpFlight(t, rec)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("recording run failed: %+v", res.Outcome)
	}
	err := trace.ReplayVerify(rec.Events(), func(f *trace.Flight) error {
		cfg := mk()
		cfg.Master.Flight = f
		if r := RunDistributed(cfg); r.Outcome != OutcomeSolved {
			return fmt.Errorf("replay run did not solve: %v", r.Outcome)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	// A run under a different config (single client, so no splits happen)
	// must NOT replay clean — otherwise the verifier is vacuous.
	err = trace.ReplayVerify(rec.Events(), func(f *trace.Flight) error {
		cfg := mk()
		cfg.MaxClients = 1
		cfg.Master.Flight = f
		RunDistributed(cfg)
		return nil
	})
	if err == nil {
		t.Fatal("replay verifier accepted a structurally different run")
	}
}

func TestDESFlightRecordsFailureRecovery(t *testing.T) {
	f := trace.NewFlight(nil)
	cfg := desConfig(gen.Pigeonhole(8), 10_000)
	cfg.Failures = []FailurePlan{{HostID: 0, AtVSec: 5}}
	cfg.Master.Flight = f
	res := RunDistributed(cfg)
	defer dumpFlight(t, f)
	if res.Outcome != OutcomeSolved {
		t.Fatalf("run with failure did not solve: %+v", res.Outcome)
	}
	counts := trace.Summarize(f.Events()).PerKind
	if counts[trace.FEvClientLeave] == 0 {
		t.Fatal("client crash left no client-leave event")
	}
	// Each recover event's parent must be a client-leave event.
	byID := make(map[uint64]trace.FEvent, f.Len())
	for _, ev := range f.Events() {
		byID[ev.ID] = ev
	}
	for _, ev := range f.Events() {
		if ev.Kind != trace.FEvRecover {
			continue
		}
		if parent, ok := byID[ev.Parent]; !ok || parent.Kind != trace.FEvClientLeave {
			t.Fatalf("recover event %d has parent %d (%+v), want a client-leave",
				ev.ID, ev.Parent, parent)
		}
	}
}

// TestLineageIsTheMastersCubes reads the split tree off the flight logs of
// runs under churn: clients crash mid-run (three schedules, each under
// first-decision and dilemma splitting), or subproblems migrate to better
// hosts. A node's place in the tree is its cube: under first-decision
// splitting its depth is the cube's length, and in every UNSAT run the
// refuted leaves partition the root, their 2^-len summing to exactly 1.
// A migration moves its cube to another client, never back to its own.
// One run submits its formula as a served job (job 1, not the one-shot
// job 0), so the tree must key every subproblem by the job it belongs to.
func TestLineageIsTheMastersCubes(t *testing.T) {
	type run struct {
		name string
		cfg  RunnerConfig
	}
	var runs []run
	for i, failures := range [][]FailurePlan{
		{{HostID: 0, AtVSec: 30}, {HostID: 1, AtVSec: 45}},
		{{HostID: 20, AtVSec: 8}, {HostID: 31, AtVSec: 30}},
		{{HostID: 0, AtVSec: 10}, {HostID: 2, AtVSec: 14}},
	} {
		for _, strategy := range []string{"first-decision", "dilemma"} {
			cfg := desConfig(gen.Pigeonhole(9), 100_000)
			cfg.Client.MinRunTime = vsecDuration(2)
			cfg.Client.SplitStrategy = strategy
			cfg.Failures = failures
			runs = append(runs, run{fmt.Sprintf("crashes-%d/%s", i+1, strategy), cfg})
		}
	}
	runs = append(runs, run{"migration/first-decision", migrationDESConfig(1)})
	served := desConfig(nil, 100_000)
	served.Jobs = []SimJob{{Name: "ph9", Formula: gen.Pigeonhole(9), Priority: 1, ArrivalVSec: 1}}
	served.Client.MinRunTime = vsecDuration(2)
	served.Failures = runs[0].cfg.Failures
	runs = append(runs, run{"served/first-decision", served})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			f := trace.NewFlight(nil)
			r.cfg.Master.Flight = f
			res := RunDistributed(r.cfg)
			defer dumpFlight(t, f)
			if r.cfg.Jobs != nil {
				if j := jobByID(t, res, 1); res.Outcome != OutcomeSolved || j.Verdict != "UNSAT" {
					t.Fatalf("got %v/%s", res.Outcome, j.Verdict)
				}
			} else if res.Outcome != OutcomeSolved || res.Status != solver.StatusUNSAT {
				t.Fatalf("got %v/%v", res.Outcome, res.Status)
			}
			counts := trace.Summarize(f.Events()).PerKind
			if counts[trace.FEvClientLeave]+counts[trace.FEvMigrate] == 0 {
				t.Fatalf("no client left and no cube migrated; the run shows no churn: %v", counts)
			}
			for _, ev := range f.Events() {
				if ev.Kind == trace.FEvMigrate && ev.Client == ev.Peer {
					t.Errorf("event %d moves cube %q from client %d back to itself", ev.ID, ev.Cube, ev.Client)
				}
			}
			tree := trace.BuildLineage(f.Events())
			firstDecision := strings.HasSuffix(r.name, "/first-decision")
			var refuted uint64
			reached := 0
			var walk func(n *trace.LineageNode, depth int)
			walk = func(n *trace.LineageNode, depth int) {
				reached++
				cubeLen := len(strings.Fields(n.Cube))
				if firstDecision && depth != cubeLen {
					t.Errorf("node #%d (cube %q) sits at depth %d, not its cube's length %d", n.ID, n.Cube, depth, cubeLen)
				}
				if len(n.Children) == 0 {
					if n.Status != trace.NodeUNSAT {
						t.Errorf("leaf #%d (cube %q) is %s in an UNSAT run", n.ID, n.Cube, n.Status)
					}
					refuted += coverageUnits(cubeLen)
				}
				for _, c := range n.Children {
					walk(c, depth+1)
				}
			}
			walk(tree.Root, 0)
			if reached != len(tree.Nodes()) {
				t.Errorf("%d of %d nodes hang off the root", reached, len(tree.Nodes()))
			}
			if refuted != coverageFull {
				t.Errorf("refuted leaves cover %d units, want exactly %d", refuted, coverageFull)
			}
		})
	}
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
	tr := comm.Instrument(comm.NewInprocTransport(), comm.NewMetrics(reg))
	fl := trace.NewFlight(nil)
	m, err := NewMaster(MasterConfig{
		Transport:       tr,
		ListenAddr:      "master",
		Formula:         gen.Pigeonhole(8),
		Timeout:         60 * time.Second,
		ExpectedClients: 4,
		Metrics:         reg,
		MetricsAddr:     "127.0.0.1:0",
		Flight:          fl,
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
			Transport:    tr,
			MasterAddr:   "master",
			HostName:     fmt.Sprintf("host-%d", i),
			FreeMemBytes: 64 << 20,
			MinRunTime:   5 * time.Millisecond,
			Flight:       fl,
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

	launch(3)
	res := <-done
	wg.Wait()
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run ended %v", res.Status)
	}
	if err := trace.Validate(fl.Events()); err != nil {
		t.Fatalf("final flight log invalid: %v", err)
	}
}
