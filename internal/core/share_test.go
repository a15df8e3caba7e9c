package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/gen"
	"gridsat/internal/obs"
	"gridsat/internal/trace"
)

// TestClauseWindowBounded is the regression test for the unbounded
// seen-clauses map the window replaced: memory must stay bounded under
// sustained sharing, while recent fingerprints are still remembered.
func TestClauseWindowBounded(t *testing.T) {
	const cap = 128
	w := newClauseWindow(cap)
	for i := 0; i < 50*cap; i++ {
		if !w.Add(uint64(i)) {
			t.Fatalf("fingerprint %d reported as duplicate on first insert", i)
		}
		if w.Len() > 2*cap {
			t.Fatalf("window grew to %d entries after %d inserts, cap %d", w.Len(), i+1, cap)
		}
	}
	// The most recent cap inserts are always remembered.
	for i := 50*cap - cap; i < 50*cap; i++ {
		if !w.Contains(uint64(i)) {
			t.Errorf("recent fingerprint %d forgotten", i)
		}
	}
	// Re-adding a remembered fingerprint is suppressed.
	if w.Add(uint64(50*cap - 1)) {
		t.Error("duplicate fingerprint reported as fresh")
	}
}

func TestClauseWindowDefaultCap(t *testing.T) {
	w := newClauseWindow(0)
	if w.cap != 1<<16 {
		t.Fatalf("default cap = %d, want %d", w.cap, 1<<16)
	}
}

func clauseOfLen(start, n int) cnf.Clause {
	lits := make([]int, n)
	for i := range lits {
		lits[i] = start + i
	}
	return cnf.NewClause(lits...)
}

func TestShareAggregatorFlushByCount(t *testing.T) {
	a := newShareAggregator(3, 3600, 0, 0)
	now := 0.0
	a.Learn(cnf.NewClause(1, 2), 0)
	a.Learn(cnf.NewClause(3, 4), 0)
	if got := a.TakeBatch(now); got != nil {
		t.Fatalf("flushed %d clauses below the count threshold", len(got))
	}
	a.Learn(cnf.NewClause(5, 6), 0)
	got := a.TakeBatch(now)
	if len(got) != 3 {
		t.Fatalf("batch has %d clauses, want 3", len(got))
	}
	if again := a.TakeBatch(now); again != nil {
		t.Fatalf("second take returned %d clauses, want none", len(again))
	}
}

func TestShareAggregatorFlushByInterval(t *testing.T) {
	a := newShareAggregator(100, 0.010, 0, 0)
	start := 0.0
	a.Learn(cnf.NewClause(1, 2), 0)
	if got := a.TakeBatch(start); got != nil {
		t.Fatal("flushed before the interval elapsed")
	}
	got := a.TakeBatch(start + 0.020)
	if len(got) != 1 {
		t.Fatalf("interval flush returned %d clauses, want 1", len(got))
	}
}

func TestShareAggregatorShortestFirst(t *testing.T) {
	a := newShareAggregator(100, 3600, 0, 0)
	a.Learn(clauseOfLen(1, 5), 0)
	a.Learn(clauseOfLen(10, 2), 0)
	a.Learn(clauseOfLen(20, 8), 0)
	a.Learn(clauseOfLen(30, 3), 0)
	got := a.Drain(0)
	for i := 1; i < len(got); i++ {
		if len(got[i-1]) > len(got[i]) {
			t.Fatalf("batch not shortest-first: lengths %d then %d", len(got[i-1]), len(got[i]))
		}
	}
	if len(got) != 4 {
		t.Fatalf("drained %d clauses, want 4", len(got))
	}
}

func TestShareAggregatorOverflowDropsLongest(t *testing.T) {
	a := newShareAggregator(2, 3600, 2, 0)
	a.Learn(clauseOfLen(1, 6), 0) // the long one — should be evicted
	a.Learn(clauseOfLen(10, 2), 0)
	a.Learn(clauseOfLen(20, 3), 0)
	got := a.Drain(0)
	if len(got) != 2 || len(got[0]) != 2 || len(got[1]) != 3 {
		t.Fatalf("batch after overflow = %v, want the 2- and 3-literal clauses, shortest first", got)
	}
}

func TestShareAggregatorDedupAndPrune(t *testing.T) {
	a := newShareAggregator(100, 3600, 0, 0)
	c1, c2 := cnf.NewClause(1, 2), cnf.NewClause(3, 4, 5)
	a.Learn(c1, 0)
	// Learning the same clause again is suppressed by the window.
	a.Learn(cnf.NewClause(2, 1), 0)
	if got := a.Drain(0); len(got) != 1 || got[0].Key() != c1.Key() {
		t.Fatalf("batch after relearn = %v, want just %v", got, c1)
	}
	// A peer sends us c2 while it is pending: it must be pruned from the
	// batch and never re-learned.
	a.Learn(c1.Clone(), 0)
	a.Learn(c2, 0)
	a.NoteReceived([]cnf.Clause{cnf.NewClause(5, 4, 3)})
	if got := a.Drain(0); got != nil {
		t.Fatalf("pending after prune = %v, want nothing (c1 already shared, c2 received)", got)
	}
	a.Learn(cnf.NewClause(3, 4, 5), 0)
	if got := a.Drain(0); got != nil {
		t.Fatalf("re-learned a clause already received from a peer: %v", got)
	}
}

// encRecorder captures every SendEncoded frame the master writes, keyed
// by connection, so tests can prove encode-once fan-out: the same frame
// backing array must reach every peer.
type encRecorder struct {
	mu     sync.Mutex
	frames map[comm.Conn][][]byte
}

func (r *encRecorder) note(c comm.Conn, e *comm.EncodedMessage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frames == nil {
		r.frames = map[comm.Conn][][]byte{}
	}
	r.frames[c] = append(r.frames[c], e.Frame())
}

type captureConn struct {
	comm.Conn
	rec  *encRecorder
	kind string
}

func (c *captureConn) SendEncoded(e *comm.EncodedMessage) error {
	if e.Kind() == c.kind {
		c.rec.note(c, e)
	}
	return c.Conn.SendEncoded(e)
}

type captureListener struct {
	comm.Listener
	rec  *encRecorder
	kind string
}

func (l *captureListener) Accept() (comm.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &captureConn{Conn: conn, rec: l.rec, kind: l.kind}, nil
}

type captureTransport struct {
	comm.Transport
	rec  *encRecorder
	kind string
}

func (t *captureTransport) Listen(addr string) (comm.Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &captureListener{Listener: l, rec: t.rec, kind: t.kind}, nil
}

// fakeClient registers a hand-rolled client connection with the master.
// When drain is true a goroutine keeps reading the master's pushes so its
// writer never blocks; when false the connection goes deaf after the ack,
// which eventually fills the master-side outbound queue.
func fakeClient(t *testing.T, tr comm.Transport, addr string, i int, drain bool) comm.Conn {
	t.Helper()
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(comm.Register{
		Addr: fmt.Sprintf("fake-peer-%d", i), HostName: fmt.Sprintf("h%d", i),
		FreeMemBytes: 64 << 20, SpeedHint: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ra, ok := ack.(comm.RegisterAck); !ok || ra.Rejected {
		t.Fatalf("registration failed: %#v", ack)
	}
	if drain {
		go func() {
			for {
				if _, err := conn.Recv(); err != nil {
					return
				}
			}
		}()
	}
	return conn
}

// TestMasterShareFanoutEncodeOnce is the acceptance check for encode-once
// broadcast: when the master fans a clause batch out to N peers, every
// peer's connection must be handed the same encoded frame — byte-identical
// AND sharing one backing array, proving the batch was serialized exactly
// once regardless of peer count.
func TestMasterShareFanoutEncodeOnce(t *testing.T) {
	rec := &encRecorder{}
	tr := &captureTransport{
		Transport: comm.NewInprocTransport(),
		rec:       rec,
		kind:      (comm.ShareClauses{}).Kind(),
	}
	m, err := NewMaster(MasterConfig{
		Transport:       tr,
		ListenAddr:      "enc-master",
		Formula:         gen.Pigeonhole(6),
		Timeout:         60 * time.Second,
		ExpectedClients: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	go m.Run()

	conns := make([]comm.Conn, 3)
	for i := range conns {
		conns[i] = fakeClient(t, tr, "enc-master", i, true)
		defer conns[i].Close()
	}

	batch := []cnf.Clause{cnf.NewClause(1, -2), cnf.NewClause(3, 4, -5), cnf.NewClause(-6)}
	if err := conns[0].Send(comm.ShareClauses{From: 0, Clauses: batch}); err != nil {
		t.Fatal(err)
	}

	// The share fans out to the two other clients; wait for both frames.
	deadline := time.Now().Add(10 * time.Second)
	var frames [][]byte
	for {
		rec.mu.Lock()
		frames = frames[:0]
		for _, fs := range rec.frames {
			frames = append(frames, fs...)
		}
		rec.mu.Unlock()
		if len(frames) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d encoded share frames, want 2", len(frames))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(frames) != 2 {
		t.Fatalf("saw %d encoded share frames, want exactly 2", len(frames))
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Fatal("peers received different frame bytes for the same batch")
	}
	if &frames[0][0] != &frames[1][0] {
		t.Fatal("peers received separately-encoded frames; broadcast must serialize once")
	}
}

// TestInprocFanOutDeliversFreshCopies guards the clause-aliasing landmine:
// every fan-out recipient must own its clauses. Two receivers get the same
// broadcast batch and mutate their copies concurrently (run under -race in
// CI); neither the other receiver nor the sender's original may change.
func TestInprocFanOutDeliversFreshCopies(t *testing.T) {
	tr := comm.NewInprocTransport()
	m, err := NewMaster(MasterConfig{
		Transport:       tr,
		ListenAddr:      "alias-master",
		Formula:         gen.Pigeonhole(6),
		Timeout:         60 * time.Second,
		ExpectedClients: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	go m.Run()

	sender := fakeClient(t, tr, "alias-master", 0, true)
	defer sender.Close()
	recv := make([]comm.Conn, 2)
	for i := range recv {
		recv[i] = fakeClient(t, tr, "alias-master", i+1, false)
		defer recv[i].Close()
	}

	original := []cnf.Clause{cnf.NewClause(1, -2, 3), cnf.NewClause(-4, 5)}
	wantKeys := map[string]bool{original[0].Key(): true, original[1].Key(): true}
	if err := sender.Send(comm.ShareClauses{From: 0, Clauses: original}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := range recv {
		conn := recv[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.After(10 * time.Second)
			for {
				type recvResult struct {
					msg comm.Message
					err error
				}
				ch := make(chan recvResult, 1)
				go func() {
					m, err := conn.Recv()
					ch <- recvResult{m, err}
				}()
				select {
				case r := <-ch:
					if r.err != nil {
						t.Errorf("recv: %v", r.err)
						return
					}
					sc, ok := r.msg.(comm.ShareClauses)
					if !ok {
						continue // base problem / assignment pushes
					}
					if len(sc.Clauses) != len(original) {
						t.Errorf("received %d clauses, want %d", len(sc.Clauses), len(original))
						return
					}
					for _, c := range sc.Clauses {
						if !wantKeys[c.Key()] {
							t.Errorf("received unexpected clause %v", c)
						}
					}
					// Mutate the received copy hard; under -race any sharing
					// with the sender or the other receiver is detected.
					for _, c := range sc.Clauses {
						for j := range c {
							c[j] = -c[j]
						}
					}
					return
				case <-deadline:
					t.Error("never received the shared batch")
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if original[0].Key() != cnf.NewClause(1, -2, 3).Key() || original[1].Key() != cnf.NewClause(-4, 5).Key() {
		t.Fatal("receiver mutation leaked into the sender's original clauses")
	}
}

// TestMasterDropsSharesWhenQueueFull: clause shares are best-effort — when
// a client's outbound queue is full the master must drop the share (never
// block its event loop), count the drop, and surface it in /status.
func TestMasterDropsSharesWhenQueueFull(t *testing.T) {
	reg := obs.NewRegistry()
	tr := comm.NewInprocTransport()
	m, err := NewMaster(MasterConfig{
		Transport:       tr,
		ListenAddr:      "drop-master",
		Formula:         gen.Pigeonhole(6),
		Timeout:         60 * time.Second,
		ExpectedClients: 2,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	go m.Run()

	sender := fakeClient(t, tr, "drop-master", 0, true)
	defer sender.Close()
	// The deaf client's writeLoop blocks on its first push; the 1024-deep
	// outbound queue then fills and further shares must be dropped.
	deaf := fakeClient(t, tr, "drop-master", 1, false)
	defer deaf.Close()

	for i := 0; i < 1200; i++ {
		c := cnf.NewClause(3*i+1, -(3*i + 2), 3*i+3)
		if err := sender.Send(comm.ShareClauses{From: 0, Clauses: []cnf.Clause{c}}); err != nil {
			t.Fatal(err)
		}
	}

	// Drops keep accruing while the flood drains, so wait for a quiescent
	// reading: two consecutive snapshots and the registry counter agree.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := m.State()
		counter := reg.Snapshot().CounterValue("gridsat_master_shared_dropped_total")
		again, _ := m.State()
		if snap.SharedDropped > 0 && snap.SharedDropped == again.SharedDropped &&
			counter == snap.SharedDropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stable non-zero drop count: /status=%d,%d registry=%d",
				snap.SharedDropped, again.SharedDropped, counter)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMasterShareWindowBounded drives sustained sharing through a live
// master whose job window is shrunk to a small cap and checks the
// duplicate-suppression state honors the bound (satellite of the unbounded
// seenClauses-map fix).
func TestMasterShareWindowBounded(t *testing.T) {
	const window = 64
	m, err := NewMaster(MasterConfig{
		Transport:       comm.NewInprocTransport(),
		ListenAddr:      "bound-master",
		Formula:         gen.Pigeonhole(6),
		Timeout:         60 * time.Second,
		ExpectedClients: 2, // never reached: the run idles while we flood
	})
	if err != nil {
		t.Fatal(err)
	}
	m.jobs[0].seenShared = newClauseWindow(window) // before Run: nothing else reads it yet
	go m.Run()

	sender := fakeClient(t, m.cfg.Transport, "bound-master", 0, true)
	defer sender.Close()
	for i := 0; i < 40*window; i++ {
		c := cnf.NewClause(2*i+1, -(2*i + 2))
		if err := sender.Send(comm.ShareClauses{From: 0, Clauses: []cnf.Clause{c}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the event loop has processed every share (all clauses are
	// distinct, so Shared counts them all); the Status reply channel then
	// gives the happens-before edge that makes reading the window safe.
	deadline := time.Now().Add(10 * time.Second)
	for st, _ := m.State(); st.Shared != 40*window; st, _ = m.State() {
		if time.Now().After(deadline) {
			t.Fatalf("master processed %d shares, want %d", st.Shared, 40*window)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := m.jobs[0].seenShared.Len(); got > 2*window {
		t.Fatalf("share window holds %d fingerprints after sustained sharing, want <= %d", got, 2*window)
	}
}

// TestMasterShareRelayPicksRecipientsFirst steps handleShare on a master
// with a captured outbox. A job held by its sender alone — every job too
// short to split — has nobody to relay to: nothing is sent, and the batch
// is neither cloned nor encoded (at the parent commit every fresh clause
// was cloned and the batch encoded before the recipient loop found no one),
// while the dedup window, the shared counters and the relay event behave as
// with an audience. With other holders the batch is encoded once.
func TestMasterShareRelayPicksRecipientsFirst(t *testing.T) {
	type sent struct {
		to  int
		msg comm.Message
	}
	const batchLen = 64
	batch := func(round int) comm.ShareClauses {
		cs := make([]cnf.Clause, batchLen)
		for i := range cs {
			cs[i] = cnf.NewClause(round*batchLen+i+1, -(round*batchLen + i + 2))
		}
		return comm.ShareClauses{From: 1, Clauses: cs}
	}
	for _, holders := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("holders=%d", holders), func(t *testing.T) {
			var outbox []sent
			fl := trace.NewFlight(nil)
			m := newMaster(MasterConfig{Formula: gen.Pigeonhole(4), Flight: fl},
				func() float64 { return 0 },
				func(to int, msg comm.Message) { outbox = append(outbox, sent{to, msg}) },
				func(BundleSpec) {})
			for i := 0; i < holders; i++ {
				c := m.clients[m.connect()]
				c.addr, c.busy = fmt.Sprintf("addr-%d", c.id), true
			}
			m.clients[m.connect()].job = 7 // registered elsewhere: never a recipient
			sender := m.clients[1]
			admitted := fl.Len() // job 0's submit event

			m.handleShare(sender, batch(0))
			if got := m.shared; got != batchLen {
				t.Fatalf("shared counter = %d, want %d", got, batchLen)
			}
			if evs := fl.Events()[admitted:]; len(evs) != 1 || evs[0].Kind != trace.FEvShareRelay || evs[0].N != batchLen {
				t.Fatalf("flight log after one batch: %+v", evs)
			}
			m.handleShare(sender, batch(0)) // all duplicates now
			if m.shared != batchLen || fl.Len() != admitted+1 {
				t.Fatal("a replayed batch got past the dedup window")
			}
			if len(outbox) != holders-1 {
				t.Fatalf("%d sends, want %d", len(outbox), holders-1)
			}
			for _, s := range outbox {
				if s.to == sender.id {
					t.Fatal("batch relayed back to its sender")
				}
				if s.msg != outbox[0].msg {
					t.Fatal("recipients got separately encoded frames")
				}
				if _, ok := s.msg.(*comm.EncodedMessage); !ok {
					t.Fatalf("relayed %T, want one encoded frame", s.msg)
				}
			}
			if holders > 1 {
				return
			}
			// No recipient: a batch of fresh clauses must cost far fewer
			// allocations than one clone per clause.
			round := 0
			allocs := testing.AllocsPerRun(20, func() {
				round++
				m.handleShare(sender, batch(round))
			})
			// batch() itself allocates batchLen clauses + 1 slice per round.
			if own := float64(batchLen + 1); allocs > own+batchLen/4 {
				t.Fatalf("%.0f allocations per %d-clause batch with nobody to relay to (the batch itself is %.0f)",
					allocs, batchLen, own)
			}
		})
	}
}
