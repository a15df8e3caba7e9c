package core

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gridsat/internal/brute"
	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
)

func quickJob(clients int) JobConfig {
	return JobConfig{
		Clients: clients,
		Timeout: 60 * time.Second,
		Client: ClientConfig{
			FreeMemBytes:   64 << 20,
			ShareMaxLen:    10,
			MinRunTime:     5 * time.Millisecond, // split eagerly in tests
			SliceConflicts: 200,
		},
	}
}

func TestJobSolveSAT(t *testing.T) {
	f := gen.RandomKSAT(40, 160, 3, 3)
	want, _ := brute.Solve(f, 0)
	res, err := Solve(f, quickJob(3))
	if err != nil {
		t.Fatal(err)
	}
	if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
		t.Fatalf("got %v, brute says %v", res.Status, want)
	}
	if res.Status == solver.StatusSAT {
		if err := f.Verify(res.Model); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJobSolveUNSATWithSplits(t *testing.T) {
	// Pigeonhole(9): heavy enough that splits are reliably accepted while
	// the donor is still busy — php(8) can finish before parallelism is
	// ever observed, making the MaxClients assertion flaky.
	f := gen.Pigeonhole(9)
	res, err := Solve(f, quickJob(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("got %v", res.Status)
	}
	if res.State.Splits == 0 {
		t.Error("eager split config produced no splits")
	}
	if res.MaxClients < 2 {
		t.Errorf("max clients = %d, expected parallelism", res.MaxClients)
	}
	if res.MaxClients > 4 {
		t.Errorf("max clients %d exceeds pool", res.MaxClients)
	}
}

func TestJobAgainstBruteMany(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		f := gen.RandomKSAT(12, 50, 3, seed)
		want, _ := brute.Solve(f, 0)
		res, err := Solve(f, quickJob(3))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: got %v, brute %v", seed, res.Status, want)
		}
	}
}

func TestJobClauseSharingHappens(t *testing.T) {
	f := gen.Pigeonhole(8)
	res, err := Solve(f, quickJob(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Shared == 0 {
		t.Error("no clauses shared on a conflict-heavy instance")
	}
}

func TestJobTimeout(t *testing.T) {
	cfg := quickJob(2)
	cfg.Timeout = 150 * time.Millisecond
	res, err := Solve(gen.Pigeonhole(11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.StatusUnknown {
		t.Fatalf("got %v, want timeout", res.Status)
	}
}

func TestMasterRejectsLowMemoryClient(t *testing.T) {
	tr := comm.NewInprocTransport()
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	m, err := NewMaster(MasterConfig{
		Transport:   tr,
		ListenAddr:  "m",
		Formula:     f,
		MinMemBytes: 128 << 20,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	go m.Run()
	_, err = NewClient(ClientConfig{
		Transport:    tr,
		MasterAddr:   "m",
		FreeMemBytes: 1 << 20, // far below the floor
	})
	if err == nil {
		t.Fatal("under-provisioned client registered successfully")
	}
}

// TestMasterNeedsFormulaAndTransport: what a master needs is a transport.
// The formula only decides what it starts with — none is a service with an
// empty queue, one is the same service with job 0 admitted.
func TestMasterNeedsFormulaAndTransport(t *testing.T) {
	f := cnf.NewFormula(1)
	f.Add(1)
	if _, err := NewMaster(MasterConfig{Formula: f}); err == nil {
		t.Fatal("master without transport accepted")
	}
	for _, tc := range []struct {
		formula *cnf.Formula
		jobs    []int
	}{{nil, nil}, {f, []int{0}}} {
		m, err := NewMaster(MasterConfig{Transport: comm.NewInprocTransport(), Formula: tc.formula})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.jobOrder, tc.jobs) {
			t.Fatalf("formula %v: jobs %v, want %v", tc.formula != nil, m.jobOrder, tc.jobs)
		}
		if j := m.jobs[0]; j != nil && (j.State != JobQueued || j.Formula != f || j.Priority != 1) {
			t.Fatalf("job 0 admitted as %+v", j)
		}
		_ = m.listener.Close()
	}
}

func TestTCPEndToEnd(t *testing.T) {
	f := gen.RandomKSAT(30, 126, 3, 7)
	want, _ := brute.Solve(f, 0)

	tr := comm.TCPTransport{}
	m, err := NewMaster(MasterConfig{
		Transport:       tr,
		ListenAddr:      "127.0.0.1:0",
		Formula:         f,
		Timeout:         60 * time.Second,
		ExpectedClients: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		res Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		r, err := m.Run()
		done <- out{r, err}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cl, err := NewClient(ClientConfig{
			Transport:      tr,
			MasterAddr:     m.Addr(),
			ListenAddr:     "127.0.0.1:0",
			FreeMemBytes:   64 << 20,
			MinRunTime:     5 * time.Millisecond,
			SliceConflicts: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cl.Run()
		}()
	}
	o := <-done
	wg.Wait()
	if o.err != nil {
		t.Fatal(o.err)
	}
	if (o.res.Status == solver.StatusSAT) != (want == brute.SAT) {
		t.Fatalf("TCP run: got %v, brute %v", o.res.Status, want)
	}
}

// TestTCPWorkerRowsReachStatus: a portfolio client's per-worker heartbeat
// rows must survive the real wire, not only the by-reference in-process
// pipe — /status shows both workers and the result reports the width.
func TestTCPWorkerRowsReachStatus(t *testing.T) {
	tr := comm.TCPTransport{}
	m, err := NewMaster(MasterConfig{
		Transport:       tr,
		ListenAddr:      "127.0.0.1:0",
		Formula:         gen.Pigeonhole(9),
		Timeout:         60 * time.Second,
		ExpectedClients: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() {
		r, _ := m.Run()
		done <- r
	}()
	cl, err := NewClient(ClientConfig{
		Transport:      tr,
		MasterAddr:     m.Addr(),
		ListenAddr:     "127.0.0.1:0",
		FreeMemBytes:   64 << 20,
		SliceConflicts: 200,
		HeartbeatEvery: 1,
		Threads:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = cl.Run() }()

	var res Result
	for rows := 0; rows != 2; {
		select {
		case res = <-done:
			t.Fatalf("run ended (%v) before /status showed two worker rows (last saw %d)", res.Status, rows)
		default:
		}
		st, _ := m.State()
		for _, c := range st.Clients {
			rows = len(c.Workers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	res = <-done
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run ended %v", res.Status)
	}
	if res.Threads != 2 {
		t.Fatalf("Result.Threads = %d, want 2", res.Threads)
	}
}

// TestFigure3SplitProtocol captures the live message flow and checks the
// paper's five-message split exchange appears: (1) split-request from the
// donor to the master, (2) split-assign from the master to the donor,
// (3) the split-payload sent peer-to-peer (not through the master),
// (4)+(5) split-done notifications from both clients to the master.
func TestFigure3SplitProtocol(t *testing.T) {
	rec := newRecordingTransport()
	f := gen.Pigeonhole(8) // conflict-heavy: guaranteed to run long enough

	m, err := NewMaster(MasterConfig{
		Transport:       rec,
		ListenAddr:      "master",
		Formula:         f,
		Timeout:         60 * time.Second,
		ExpectedClients: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() {
		r, _ := m.Run()
		done <- r
	}()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cl, err := NewClient(ClientConfig{
			Transport:      rec,
			MasterAddr:     "master",
			FreeMemBytes:   64 << 20,
			MinRunTime:     time.Millisecond,
			SliceConflicts: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cl.Run()
		}()
	}
	res := <-done
	wg.Wait()
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run result %v", res.Status)
	}

	trace := rec.snapshot()
	count := map[string]int{}
	for _, e := range trace {
		count[e.kind]++
	}
	for _, k := range []string{"split-request", "split-assign", "split-payload", "split-done"} {
		if count[k] == 0 {
			t.Fatalf("message %q never observed; trace kinds: %v", k, count)
		}
	}
	// The five-message exchange must appear in order (1) request →
	// (2) assign → (3) P2P payload → (4)/(5) done. The master's initial
	// problem assignment is also a split-payload, so scan for the
	// subsequence starting from the first split-request.
	want := []string{"split-request", "split-assign", "split-payload", "split-done", "split-done"}
	wi := 0
	for _, e := range trace {
		if wi < len(want) && e.kind == want[wi] {
			wi++
		}
	}
	if wi != len(want) {
		kinds := make([]string, len(trace))
		for i, e := range trace {
			kinds[i] = e.kind
		}
		t.Errorf("five-message exchange incomplete (matched %d of %d) in trace %v", wi, len(want), kinds)
	}
	// Message (3) must be peer-to-peer: after the initial assignment, no
	// client-sent payload targets the master.
	for _, e := range trace {
		if e.kind == "split-payload" && e.dst == "master" && e.srcIsClient {
			t.Error("split payload routed through the master; must be P2P")
		}
	}
}

// recordingTransport wraps the in-process transport, logging every Send.
type recordingTransport struct {
	inner *comm.InprocTransport
	mu    sync.Mutex
	log   []traceEntry
}

type traceEntry struct {
	kind        string
	dst         string
	srcIsClient bool
}

func newRecordingTransport() *recordingTransport {
	return &recordingTransport{inner: comm.NewInprocTransport()}
}

func (r *recordingTransport) Listen(addr string) (comm.Listener, error) {
	l, err := r.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &recordingListener{Listener: l, tr: r}, nil
}

// recordingListener wraps accepted conns so replies (e.g. the master's
// split-assign) are traced too.
type recordingListener struct {
	comm.Listener
	tr *recordingTransport
}

func (l *recordingListener) Accept() (comm.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, tr: l.tr, dst: "peer-of-" + l.Addr(), srcIsListener: true}, nil
}

func (r *recordingTransport) Dial(addr string) (comm.Conn, error) {
	c, err := r.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, tr: r, dst: addr}, nil
}

type recordingConn struct {
	comm.Conn
	tr            *recordingTransport
	dst           string
	srcIsListener bool
}

func (c *recordingConn) Send(m comm.Message) error {
	c.tr.mu.Lock()
	c.tr.log = append(c.tr.log, traceEntry{kind: m.Kind(), dst: c.dst, srcIsClient: !c.srcIsListener})
	c.tr.mu.Unlock()
	return c.Conn.Send(m)
}

func (r *recordingTransport) snapshot() []traceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]traceEntry(nil), r.log...)
}

func TestMasterStateSnapshot(t *testing.T) {
	tr := comm.NewInprocTransport()
	f := gen.Pigeonhole(8) // light enough to finish under -race slowdown
	m, err := NewMaster(MasterConfig{
		Transport: tr, ListenAddr: "status-master", Formula: f,
		Timeout: 5 * time.Minute, ExpectedClients: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() {
		r, _ := m.Run()
		done <- r
	}()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		cl, err := NewClient(ClientConfig{
			Transport: tr, MasterAddr: "status-master",
			FreeMemBytes: 64 << 20, MinRunTime: 5 * time.Millisecond,
			SliceConflicts: 200, HeartbeatEvery: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = cl.Run()
		}()
	}
	// Poll until work is visibly in flight.
	sawBusy := false
	for i := 0; i < 200; i++ {
		snap, _ := m.State()
		if snap.Busy > 0 && snap.Registered == 3 {
			sawBusy = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res := <-done
	wg.Wait()
	if !sawBusy {
		t.Error("status snapshots never showed a busy client")
	}
	if res.Status != solver.StatusUNSAT {
		t.Fatalf("run result %v", res.Status)
	}
}

// TestJobSolveDilemmaUNSAT drives the live master/client multi-way path:
// a dilemma job must reserve several recipients per split request, deliver
// the cofactor batch, and still reach the right verdict.
func TestJobSolveDilemmaUNSAT(t *testing.T) {
	for _, strategy := range []string{"dilemma", "dilemma-veto"} {
		t.Run(strategy, func(t *testing.T) {
			cfg := quickJob(6)
			cfg.Client.SplitStrategy = strategy
			res, err := Solve(gen.Pigeonhole(9), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != solver.StatusUNSAT {
				t.Fatalf("got %v", res.Status)
			}
			if res.State.Splits == 0 {
				t.Error("eager split config produced no splits")
			}
			if res.MaxClients < 2 {
				t.Errorf("max clients = %d, expected parallelism", res.MaxClients)
			}
		})
	}
}

// TestJobDilemmaAgainstBrute sweeps SAT and UNSAT random instances through
// a live dilemma job.
func TestJobDilemmaAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		f := gen.RandomKSAT(12, 50, 3, seed)
		want, _ := brute.Solve(f, 0)
		cfg := quickJob(3)
		cfg.Client.SplitStrategy = "dilemma"
		res, err := Solve(f, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if (res.Status == solver.StatusSAT) != (want == brute.SAT) {
			t.Fatalf("seed %d: got %v, brute %v", seed, res.Status, want)
		}
		if res.Status == solver.StatusSAT {
			if err := f.Verify(res.Model); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

// TestJobUnknownStrategyRejected: a bad -split-strategy value must fail
// fast at construction, not at the first split.
func TestJobUnknownStrategyRejected(t *testing.T) {
	cfg := quickJob(2)
	cfg.Client.SplitStrategy = "bogus"
	if _, err := Solve(gen.Pigeonhole(6), cfg); err == nil {
		t.Fatal("unknown split strategy accepted")
	}
}

// TestOneShotRunNamesWhyItHasNoVerdict: job 0 of a one-shot master can end
// without a verdict in two ways — a client is lost holding the only copy of
// a subproblem (the live shell has no checkpoint to salvage), or a model
// fails Verify — and Run, whose error Solve returns as it is, must name the
// cause. The scripted client speaks the registration handshake and takes
// the root like a real one, then misbehaves.
func TestOneShotRunNamesWhyItHasNoVerdict(t *testing.T) {
	f := cnf.NewFormula(2)
	f.Add(1, 2)
	for _, tc := range []struct {
		name      string
		misbehave func(conn comm.Conn)
		want      string
	}{
		{"lost client", func(conn comm.Conn) { _ = conn.Close() },
			"core: lost client 1 while it held a subproblem"},
		{"invalid model", func(conn comm.Conn) {
			_ = conn.Send(comm.Solved{Status: solver.StatusSAT, Model: cnf.NewAssignment(3)})
		}, "core: client 1 reported an invalid model"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := comm.NewInprocTransport()
			m, err := NewMaster(MasterConfig{Transport: tr, ListenAddr: "m", Formula: f, Timeout: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := tr.Dial("m")
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				defer conn.Close()
				_ = conn.Send(comm.Register{Addr: "nowhere", HostName: "scripted", FreeMemBytes: 1 << 30, SpeedHint: 1})
				for {
					msg, err := conn.Recv()
					if err != nil {
						return
					}
					if p, ok := msg.(comm.SplitPayload); ok { // the root
						_ = conn.Send(comm.SplitDone{SplitID: p.SplitID, OK: true})
						tc.misbehave(conn)
					}
				}
			}()
			res, err := m.Run()
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("Run error %v, want %q", err, tc.want)
			}
			if res.Status != solver.StatusUnknown || res.Model != nil {
				t.Fatalf("result %v with a model of %d: want UNKNOWN and none", res.Status, len(res.Model))
			}
		})
	}
}

// TestSolveReturnsTheLostClientError takes the same loss through Solve: the
// one client's Run goroutine exits from inside its first conflict, which
// hangs up on the master the way a killed process does.
func TestSolveReturnsTheLostClientError(t *testing.T) {
	opts := solver.DefaultOptions()
	opts.OnLemma = func(cnf.Clause) { runtime.Goexit() }
	res, err := Solve(gen.Pigeonhole(6), JobConfig{Clients: 1, Timeout: time.Minute, Client: ClientConfig{SolverOptions: &opts}})
	if err == nil || err.Error() != "core: lost client 1 while it held a subproblem" {
		t.Fatalf("Solve error %v, want the lost-client error", err)
	}
	if res.Status != solver.StatusUnknown {
		t.Fatalf("status %v, want UNKNOWN", res.Status)
	}
}
