package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// runResult is what a master's Run returned.
type runResult struct {
	res Result
	err error
}

// serveMaster boots a master — on an in-process transport and with a
// two-minute timeout unless cfg sets them — and runs its event loop. The
// channel yields what Run returned: after Shutdown, the end of the job
// cfg.Formula admits, or the timeout.
func serveMaster(t *testing.T, cfg MasterConfig) (*Master, <-chan runResult) {
	t.Helper()
	if cfg.Transport == nil {
		cfg.Transport = comm.NewInprocTransport()
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	m, err := NewMaster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan runResult, 1)
	go func() {
		res, err := m.Run()
		done <- runResult{res, err}
	}()
	return m, done
}

// serveClients launches n clients against m, each configured as tmpl with
// what it leaves zero filled in: m's transport and address, a listen
// address the transport dials back, host-<i>, 64 MiB free and a 5 ms split
// floor. Each tune edits every client before it runs. The WaitGroup drains
// once every client's Run has returned.
func serveClients(t *testing.T, m *Master, n int, tmpl ClientConfig, tune ...func(*Client)) *sync.WaitGroup {
	t.Helper()
	if tmpl.Transport == nil {
		tmpl.Transport = m.cfg.Transport
	}
	if tmpl.MasterAddr == "" {
		tmpl.MasterAddr = m.Addr()
	}
	if tmpl.ListenAddr == "" {
		tmpl.ListenAddr = clientListenAddr(tmpl.Transport)
	}
	if tmpl.FreeMemBytes == 0 {
		tmpl.FreeMemBytes = 64 << 20
	}
	if tmpl.MinRunTime == 0 {
		tmpl.MinRunTime = 5 * time.Millisecond
	}
	var wg sync.WaitGroup
	for i := range n {
		cfg := tmpl
		if cfg.HostName == "" {
			cfg.HostName = fmt.Sprintf("host-%d", i)
		}
		cl, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range tune {
			f(cl)
		}
		wg.Add(1)
		go func() { defer wg.Done(); _ = cl.Run() }()
	}
	return &wg
}

// clientListenAddr picks a client listen address suited to the transport:
// TCP needs a real port for peer-to-peer payloads, inproc self-names.
func clientListenAddr(tr comm.Transport) string {
	if _, ok := tr.(comm.TCPTransport); ok {
		return "127.0.0.1:0"
	}
	return ""
}

// waitJobState polls until the job reaches a terminal state.
func waitJobState(t *testing.T, m *Master, id int, within time.Duration) JobSnapshot {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		snap, err := m.JobStatus(id, true)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == "done" || snap.State == "cancelled" {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d still %q after %v: %+v", id, snap.State, within, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// modelSatisfies checks a DIMACS-literal model against every clause.
func modelSatisfies(f *cnf.Formula, model []int) bool {
	val := map[int]bool{}
	for _, l := range model {
		if l > 0 {
			val[l] = true
		} else {
			val[-l] = false
		}
	}
	for _, cl := range f.Clauses {
		sat := false
		for _, lit := range cl {
			d := lit.DIMACS()
			v, ok := val[absInt(d)]
			if ok && v == (d > 0) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// satTestFormula returns a small satisfiable 3-SAT instance, verified
// against the brute-force reference so the test never lies to itself.
func satTestFormula(t *testing.T) *cnf.Formula {
	t.Helper()
	f := gen.RandomKSAT(20, 70, 3, 3)
	if want, _ := brute.Solve(f, 0); want != brute.SAT {
		t.Fatal("test formula unexpectedly UNSAT; pick another seed")
	}
	return f
}

// TestServeTwoConcurrentJobs is the service's basic contract over the
// in-process transport: two jobs submitted back to back share the pool and
// both reach correct verdicts — the UNSAT one by exhaustion, the SAT one
// with a model that satisfies its formula.
func TestServeTwoConcurrentJobs(t *testing.T) {
	fl := trace.NewFlight(nil)
	m, done := serveMaster(t, MasterConfig{Flight: fl})
	wg := serveClients(t, m, 3, ClientConfig{Flight: fl})

	unsat := gen.Pigeonhole(7)
	sat := satTestFormula(t)

	id1, err := m.Submit("php7", unsat, 1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := m.Submit("rand3", sat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 || id1 <= 0 || id2 <= 0 {
		t.Fatalf("bad job IDs %d, %d", id1, id2)
	}

	s1 := waitJobState(t, m, id1, time.Minute)
	s2 := waitJobState(t, m, id2, time.Minute)
	if s1.Verdict != "UNSAT" {
		t.Fatalf("job %d verdict %q, want UNSAT", id1, s1.Verdict)
	}
	if s2.Verdict != "SAT" {
		t.Fatalf("job %d verdict %q, want SAT", id2, s2.Verdict)
	}
	if len(s2.Model) == 0 || !modelSatisfies(sat, s2.Model) {
		t.Fatalf("job %d model does not satisfy its formula: %v", id2, s2.Model)
	}

	// The flight log agrees with the API on both verdicts.
	verdicts := trace.JobVerdicts(fl.Events())
	if verdicts[id1] != "UNSAT" || verdicts[id2] != "SAT" {
		t.Fatalf("flight-log verdicts %v disagree with API", verdicts)
	}

	jobs, err := m.Jobs()
	if err != nil || len(jobs) != 2 || jobs[0].ID != id1 || jobs[1].ID != id2 {
		t.Fatalf("Jobs() = %+v, %v, want [%d %d] in submission order", jobs, err, id1, id2)
	}

	m.Shutdown()
	<-done
	wg.Wait()
}

// TestServeHTTPAPI drives the service purely over HTTP: submit via a
// DIMACS POST body, poll status, fetch the result with its model, list
// jobs, cancel a long-running job mid-run, and get proper error codes
// for unknown IDs, double cancels, and garbage bodies.
func TestServeHTTPAPI(t *testing.T) {
	m, done := serveMaster(t, MasterConfig{MetricsAddr: "127.0.0.1:0"})
	wg := serveClients(t, m, 2, ClientConfig{})
	base := "http://" + m.MetricsAddr()

	dimacs := func(f *cnf.Formula) *bytes.Buffer {
		b := new(bytes.Buffer)
		if err := cnf.WriteDIMACS(b, f); err != nil {
			t.Fatal(err)
		}
		return b
	}
	post := func(path string, body *bytes.Buffer) (*http.Response, string) {
		t.Helper()
		if body == nil {
			body = new(bytes.Buffer)
		}
		resp, err := http.Post(base+path, "text/plain", body)
		if err != nil {
			t.Fatal(err)
		}
		out := new(bytes.Buffer)
		_, _ = out.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, out.String()
	}
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		out := new(bytes.Buffer)
		_, _ = out.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, out.String()
	}

	// Submit a small SAT instance and a long UNSAT one to cancel.
	sat := satTestFormula(t)
	resp, body := post("/jobs?name=websat&priority=2", dimacs(sat))
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(body, `"id"`) {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	resp, body = post("/jobs?name=weblong", dimacs(gen.Pigeonhole(10)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit long: %d %s", resp.StatusCode, body)
	}

	// Garbage bodies and bad priorities are the client's fault.
	if resp, _ = post("/jobs", bytes.NewBufferString("this is not DIMACS")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage submit status %d, want 400", resp.StatusCode)
	}
	if resp, _ = post("/jobs?priority=x", dimacs(sat)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority status %d, want 400", resp.StatusCode)
	}

	// The list shows both jobs in submission order with their names.
	if _, body = get("/jobs"); !strings.Contains(body, "websat") || !strings.Contains(body, "weblong") {
		t.Fatalf("job list missing names: %s", body)
	}

	// Poll job 1 to a SAT verdict, then fetch the model on /result.
	deadline := time.Now().Add(time.Minute)
	for {
		if _, body = get("/jobs/1"); strings.Contains(body, `"state": "done"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 1 never finished: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(body, `"verdict": "SAT"`) {
		t.Fatalf("job 1 status: %s", body)
	}
	if _, body = get("/jobs/1/result"); !strings.Contains(body, `"model"`) {
		t.Fatalf("result has no model: %s", body)
	}

	// Cancel the long job mid-run; a second cancel conflicts.
	if resp, body = post("/jobs/2/cancel", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}
	if resp, _ = post("/jobs/2/cancel", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel status %d, want 409", resp.StatusCode)
	}
	if _, body = get("/jobs/2"); !strings.Contains(body, `"state": "cancelled"`) {
		t.Fatalf("job 2 after cancel: %s", body)
	}

	// Unknown IDs are 404 on status, result and cancel alike.
	if resp, _ = get("/jobs/99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", resp.StatusCode)
	}
	if resp, _ = post("/jobs/99/cancel", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cancel status %d, want 404", resp.StatusCode)
	}

	// The cancelled job's clients came back: a third submission still
	// completes, proving the pool was actually released.
	resp, body = post("/jobs?name=after", dimacs(gen.Pigeonhole(5)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit: %d %s", resp.StatusCode, body)
	}
	s3 := waitJobState(t, m, 3, time.Minute)
	if s3.Verdict != "UNSAT" {
		t.Fatalf("post-cancel job verdict %q, want UNSAT", s3.Verdict)
	}

	m.Shutdown()
	<-done
	wg.Wait()
}

// TestServeAdmissionAndErrors pins the Go-API edges: admission control
// rejects past the active cap and frees a slot when a job ends; a
// one-shot master takes the same calls, job 0 included.
func TestServeAdmissionAndErrors(t *testing.T) {
	m, done := serveMaster(t, MasterConfig{Admission: Admission{MaxActive: 1}})
	f := twoVars()
	id1, err := m.Submit("one", f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("two", f, 1); err == nil {
		t.Fatal("second submit admitted past MaxActive=1")
	}
	if err := m.CancelJob(id1); err != nil {
		t.Fatal(err)
	}
	// The cancelled job no longer counts as active; the queue reopens.
	if _, err := m.Submit("three", f, 1); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if err := m.CancelJob(99); err == nil {
		t.Fatal("cancelling an unknown job succeeded")
	}
	if _, err := m.JobStatus(99, false); err == nil {
		t.Fatal("status of an unknown job succeeded")
	}
	m.Shutdown()
	<-done

	// A one-shot master is the same service with job 0 already admitted: it
	// takes a second job behind it, and cancelling job 0 ends its run.
	sm, sdone := serveMaster(t, MasterConfig{Formula: f, Timeout: time.Minute})
	if id, err := sm.Submit("x", f, 1); err != nil || id != 1 {
		t.Fatalf("Submit on a one-shot master: id=%d err=%v, want job 1", id, err)
	}
	if jobs, err := sm.Jobs(); err != nil || len(jobs) != 2 || jobs[0].ID != 0 || jobs[0].State != "queued" {
		t.Fatalf("jobs of a one-shot master: %+v, %v", jobs, err)
	}
	if err := sm.CancelJob(0); err != nil {
		t.Fatalf("CancelJob(0) on a one-shot master: %v", err)
	}
	out := <-sdone
	if out.err != nil || out.res.Status != solver.StatusUnknown {
		t.Fatalf("run after cancelling job 0: status=%v err=%v, want UNKNOWN and no error", out.res.Status, out.err)
	}
}

// TestServeSchedulerChurn hammers the scheduler with arrivals of mixed
// priority, cancels and late-joining clients — the -race CI target. Every
// job must still reach a terminal state and the verdicts that do land must
// be correct.
func TestServeSchedulerChurn(t *testing.T) {
	m, done := serveMaster(t, MasterConfig{Admission: Admission{MaxActive: 16}})
	wg := serveClients(t, m, 2, ClientConfig{})

	type want struct {
		id      int
		verdict string // "" = cancelled, no verdict expected
	}
	var wants []want
	for i := 0; i < 6; i++ {
		var f *cnf.Formula
		verdict := ""
		if i%2 == 0 {
			f = gen.Pigeonhole(6)
			verdict = "UNSAT"
		} else {
			f = gen.RandomKSAT(20, 70, 3, 3)
			verdict = "SAT"
		}
		id, err := m.Submit(fmt.Sprintf("churn-%d", i), f, 1+i%3)
		if err != nil {
			t.Fatal(err)
		}
		// Cancel every third job almost immediately, racing the
		// scheduler's assignment of it.
		if i%3 == 2 {
			verdict = ""
			go func() { _ = m.CancelJob(id) }()
		}
		wants = append(wants, want{id, verdict})
		if i == 2 {
			// Two more clients join mid-stream.
			wg2 := serveClients(t, m, 2, ClientConfig{})
			defer wg2.Wait()
		}
		time.Sleep(3 * time.Millisecond)
	}

	for _, w := range wants {
		snap := waitJobState(t, m, w.id, time.Minute)
		if w.verdict != "" && snap.Verdict != w.verdict {
			t.Fatalf("job %d verdict %q, want %q", w.id, snap.Verdict, w.verdict)
		}
		if w.verdict == "" && snap.State != "cancelled" && snap.Verdict == "" {
			t.Fatalf("job %d neither cancelled nor decided: %+v", w.id, snap)
		}
	}
	m.Shutdown()
	<-done
	wg.Wait()
}

// TestServeSecondJobAfterHeartbeats is the D1 regression: with the CLI's
// default 128 MB -min-mem, a client's first heartbeat used to overwrite the
// free memory it registered with by the few MB its clause arena uses, so
// placement rejected every client that had ever reported and no job after
// the first was ever assigned.
func TestServeSecondJobAfterHeartbeats(t *testing.T) {
	m, done := serveMaster(t, MasterConfig{MinMemBytes: 128 << 20})
	wg := serveClients(t, m, 2, ClientConfig{FreeMemBytes: 256 << 20})
	first, err := m.Submit("first", gen.Pigeonhole(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitJobState(t, m, first, time.Minute); snap.Verdict != "UNSAT" {
		t.Fatalf("first job verdict %q, want UNSAT", snap.Verdict)
	}
	heartbeated := 0
	st, err := m.State()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range st.Clients {
		if c.Conflicts > 0 {
			heartbeated++
			if c.MemBytes <= 0 || c.MemBytes >= 128<<20 {
				t.Errorf("client %d reports %d bytes; /status must show used arena memory, not free memory", c.ID, c.MemBytes)
			}
		}
	}
	if heartbeated == 0 {
		t.Fatal("no client heartbeated during the first job; the test would prove nothing")
	}
	second, err := m.Submit("second", gen.Pigeonhole(6), 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitJobState(t, m, second, 30*time.Second); snap.Verdict != "UNSAT" {
		t.Fatalf("second job verdict %q, want UNSAT", snap.Verdict)
	}
	m.Shutdown()
	<-done
	wg.Wait()
}

// TestWedgedLoopAnswers503: while the event loop is held past the 2 s
// deadline, every endpoint that asks the loop answers 503 — not a zero
// ClusterState, a null job list or an empty alert feed that `gridsat top`
// would paint as an idle cluster, nor a 404, 409 or 429 that blames the
// request — and /healthz, which never asks the loop, still answers 200.
// Once the loop is released it answers again, and what it was asked while
// held has not happened.
func TestWedgedLoopAnswers503(t *testing.T) {
	t.Parallel()
	m, done := serveMaster(t, MasterConfig{MetricsAddr: "127.0.0.1:0", BundleDir: t.TempDir(), Admission: Admission{MaxActive: 4}})
	base := "http://" + m.MetricsAddr()
	do := func(route string) int {
		method, path, _ := strings.Cut(route, " ")
		req, err := http.NewRequest(method, base+path, strings.NewReader("p cnf 1 1\n1 0\n"))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	held, release := make(chan struct{}), make(chan struct{})
	m.events <- masterEvent{apply: func() bool {
		close(held)
		<-release
		return false
	}}
	<-held
	want := map[string]int{"GET /status": 503, "GET /jobs": 503, "GET /alerts": 503, "GET /history": 503,
		"GET /jobs/1": 503, "GET /jobs/1/result": 503, "POST /jobs/1/cancel": 503, "POST /jobs": 503,
		"POST /debug/bundle": 503, "GET /healthz": 200}
	got := make(map[string]int, len(want))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for route := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code := do(route)
			mu.Lock()
			got[route] = code
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(release)
	for route, code := range want {
		if got[route] != code {
			t.Errorf("%s on a wedged loop: %d, want %d", route, got[route], code)
		}
	}
	if code := do("GET /status"); code != 200 {
		t.Errorf("GET /status after release: %d, want 200", code)
	}
	if jobs, err := m.Jobs(); err != nil || len(jobs) != 0 {
		t.Errorf("after release: jobs %v (%v), want none: a submission answered 503 took effect", jobs, err)
	}
	m.Shutdown()
	<-done
}

// TestOneShotMasterServesJobs: a one-shot master with an HTTP address
// serves the job API like any other, its own formula listed as job 0.
func TestOneShotMasterServesJobs(t *testing.T) {
	m, done := serveMaster(t, MasterConfig{MetricsAddr: "127.0.0.1:0", Formula: gen.Pigeonhole(4), ExpectedClients: 1})
	resp, err := http.Get("http://" + m.MetricsAddr() + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []JobSnapshot
	err = json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs: HTTP %d, %v", resp.StatusCode, err)
	}
	if len(jobs) != 1 || jobs[0].ID != 0 || jobs[0].State != "queued" {
		t.Fatalf("GET /jobs = %+v, want job 0 alone, queued", jobs)
	}
	m.Shutdown()
	<-done
}
