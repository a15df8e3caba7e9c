package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.After(2, func() { order = append(order, 2) })
	s.After(1, func() { order = append(order, 1) })
	s.After(3, func() { order = append(order, 3) })
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("now = %v, want horizon 10", s.Now())
	}
}

func TestSimEqualTimesFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(1, func() { order = append(order, i) })
	}
	s.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of scheduling order: %v", order)
		}
	}
}

// A reserved ticket is a place in the scheduling order, not a time: an
// event queued under it long after — from a later event, when its time is
// finally known — still ties with equal-time events as if At had been
// called where Reserve was.
func TestSimReservedTicketKeepsItsPlace(t *testing.T) {
	s := NewSim()
	var order []string
	s.At(5, func() { order = append(order, "before") })
	tk := s.Reserve()
	s.At(5, func() { order = append(order, "after") })
	s.At(2, func() {
		s.At(5, func() { order = append(order, "last") })
		s.AtTicket(tk, 5, func() { order = append(order, "reserved") })
		s.AtTicket(s.Reserve(), 1, func() { order = append(order, "clamped") }) // the past clamps to now
	})
	s.Run(10)
	want := []string{"clamped", "before", "reserved", "after", "last"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// BenchmarkSimSelfRescheduling is gridbench's grid.sim_events_per_s probe
// as a benchmark: each handler schedules the next, a million times per op.
func BenchmarkSimSelfRescheduling(b *testing.B) {
	for range b.N {
		const events = 1_000_000
		s := NewSim()
		n := 0
		var tick func()
		tick = func() {
			if n++; n < events {
				s.After(1, tick)
			}
		}
		s.At(0, tick)
		s.Run(events + 1)
		if n != events {
			b.Fatalf("%d events ran", n)
		}
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim()
	var times []float64
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(1, func() { times = append(times, s.Now()) })
	})
	s.Run(5)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v", times)
	}
}

func TestSimHorizonStopsEarly(t *testing.T) {
	s := NewSim()
	ran := false
	s.After(10, func() { ran = true })
	s.Run(5)
	if ran {
		t.Fatal("event past horizon ran")
	}
	if s.Now() != 5 {
		t.Fatalf("now = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Run(20) // resume past the event
	if !ran {
		t.Fatal("event never ran after horizon extension")
	}
}

func TestSimPastSchedulingClamps(t *testing.T) {
	s := NewSim()
	s.After(5, func() {
		s.At(1, func() {
			if s.Now() != 5 {
				t.Errorf("past event ran at %v, want clamped to 5", s.Now())
			}
		})
	})
	s.Run(10)
}

func TestSimNegativeDelayClamps(t *testing.T) {
	s := NewSim()
	ran := false
	s.After(-3, func() { ran = true })
	s.Run(1)
	if !ran {
		t.Fatal("negative-delay event dropped")
	}
}

func TestAvailabilityBounds(t *testing.T) {
	g := TestbedGrADS(1)
	prop := func(hostIdx uint8, tRaw uint16) bool {
		h := g.Hosts[int(hostIdx)%len(g.Hosts)]
		a := g.Availability(h, float64(tRaw))
		return a >= 0.05 && a <= 1.0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAvailabilityDeterministic(t *testing.T) {
	g1 := TestbedGrADS(7)
	g2 := TestbedGrADS(7)
	for _, tt := range []float64{0, 10, 100, 5000} {
		if g1.Availability(g1.Hosts[3], tt) != g2.Availability(g2.Hosts[3], tt) {
			t.Fatal("availability not deterministic in seed")
		}
	}
	g3 := TestbedGrADS(8)
	same := true
	for _, tt := range []float64{0, 31, 61, 91, 121} {
		if g1.Availability(g1.Hosts[3], tt) != g3.Availability(g3.Hosts[3], tt) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical availability traces")
	}
}

func TestDedicatedHostFullyAvailable(t *testing.T) {
	g := &Grid{Seed: 1, Network: DefaultNetwork()}
	h := &Host{ID: 0, BaseAvail: 1, Jitter: 0}
	g.Hosts = append(g.Hosts, h)
	for _, tt := range []float64{0, 100, 10000} {
		if g.Availability(h, tt) != 1 {
			t.Fatal("dedicated host not fully available")
		}
	}
}

func TestFreeMemBounds(t *testing.T) {
	g := TestbedGrADS(3)
	for _, h := range g.Hosts {
		for _, tt := range []float64{0, 61, 500} {
			fm := g.FreeMem(h, tt)
			if fm <= 0 || fm > h.MemBytes {
				t.Fatalf("free mem %d outside (0, %d]", fm, h.MemBytes)
			}
			if fm < h.MemBytes/2 {
				t.Fatalf("free mem %d below half of %d", fm, h.MemBytes)
			}
		}
	}
}

func TestNetworkTransfer(t *testing.T) {
	n := DefaultNetwork()
	a := &Host{ID: 1, Site: "x"}
	b := &Host{ID: 2, Site: "x"}
	c := &Host{ID: 3, Site: "y"}
	if n.Transfer(a, a, 1000) != 0 {
		t.Error("same-host transfer should be free")
	}
	local := n.Transfer(a, b, 1_000_000)
	wan := n.Transfer(a, c, 1_000_000)
	if local >= wan {
		t.Errorf("local %v not faster than wan %v", local, wan)
	}
	small := n.Transfer(a, c, 1000)
	if small >= wan {
		t.Error("transfer time not monotone in size")
	}
	if math.Abs(n.Transfer(a, b, 10_000_000)-(0.001+1.0)) > 1e-9 {
		t.Errorf("local 10MB = %v, want ~1.001", n.Transfer(a, b, 10_000_000))
	}
}

func TestTestbedShapes(t *testing.T) {
	g := TestbedGrADS(1)
	if len(g.Hosts) != 34 {
		t.Fatalf("GrADS testbed has %d hosts, want 34", len(g.Hosts))
	}
	sites := map[string]int{}
	for _, h := range g.Hosts {
		sites[h.Site]++
	}
	if len(sites) != 5 {
		t.Fatalf("site groups = %v, want 5 clusters", sites)
	}
	if g.Hosts[0].Speed != 1.0 {
		t.Fatal("host 0 must be the best (baseline) node")
	}
	if g.HostByID(g.Hosts[5].ID) != g.Hosts[5] {
		t.Fatal("HostByID broken")
	}
	if g.HostByID(-1) != nil {
		t.Fatal("HostByID(-1) should be nil")
	}

	t2 := TestbedTable2(1)
	if len(t2.Hosts) != 27 {
		t.Fatalf("Table-2 testbed has %d hosts, want 27", len(t2.Hosts))
	}
	for _, h := range t2.Hosts {
		if h.Speed < 0.5 {
			t.Fatal("Table-2 testbed should have no slow machines")
		}
	}
}

func TestAddBlueHorizon(t *testing.T) {
	g := TestbedTable2(1)
	nodes := g.AddBlueHorizon(16)
	if len(nodes) != 16 || len(g.Hosts) != 27+16 {
		t.Fatalf("blue horizon sizing wrong: %d/%d", len(nodes), len(g.Hosts))
	}
	ids := map[int]bool{}
	for _, h := range g.Hosts {
		if ids[h.ID] {
			t.Fatalf("duplicate host ID %d", h.ID)
		}
		ids[h.ID] = true
	}
	for _, h := range nodes {
		if !h.Batch {
			t.Fatal("blue horizon node not marked Batch")
		}
		if g.Availability(h, 123) != 1 {
			t.Fatal("allocated batch node should be dedicated")
		}
	}
}

func TestBatchSystemLifecycle(t *testing.T) {
	sim := NewSim()
	g := TestbedTable2(1)
	nodes := g.AddBlueHorizon(8)
	bs := NewBatchSystem(sim, nodes, 1000, 42)

	var started, ended *BatchJob
	job, err := bs.Submit(4, 500, func(j *BatchJob) { started = j }, func(j *BatchJob) { ended = j })
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobQueued {
		t.Fatalf("state = %v", job.State)
	}
	sim.Run(600) // mean wait 1000×[0.6,1.8): earliest possible start at 600
	sim.Run(1800 + 500)
	if started == nil {
		t.Fatal("job never started")
	}
	if len(started.Nodes) != 4 {
		t.Fatalf("allocated %d nodes, want 4", len(started.Nodes))
	}
	if started.StartAt < 600 || started.StartAt > 1800 {
		t.Fatalf("start %v outside queue-wait envelope [600,1800)", started.StartAt)
	}
	sim.Run(started.EndAt + 1)
	if ended == nil || ended.State != JobFinished {
		t.Fatal("job did not finish after walltime")
	}
}

func TestBatchCancelWhileQueued(t *testing.T) {
	sim := NewSim()
	g := TestbedTable2(1)
	nodes := g.AddBlueHorizon(8)
	bs := NewBatchSystem(sim, nodes, 100, 1)
	started := false
	job, err := bs.Submit(2, 100, func(*BatchJob) { started = true }, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs.Cancel(job)
	sim.Run(10_000)
	if started {
		t.Fatal("canceled job started anyway")
	}
	if job.State != JobCanceled {
		t.Fatalf("state = %v", job.State)
	}
}

func TestBatchOversizedRequest(t *testing.T) {
	sim := NewSim()
	g := TestbedTable2(1)
	nodes := g.AddBlueHorizon(4)
	bs := NewBatchSystem(sim, nodes, 100, 1)
	if _, err := bs.Submit(10, 100, nil, nil); err == nil {
		t.Fatal("oversized batch request accepted")
	}
}

func TestBatchQueueWaitDeterministic(t *testing.T) {
	mk := func() float64 {
		sim := NewSim()
		g := TestbedTable2(1)
		bs := NewBatchSystem(sim, g.AddBlueHorizon(4), 1000, 9)
		var start float64
		job, _ := bs.Submit(1, 10, func(j *BatchJob) { start = j.StartAt }, nil)
		_ = job
		sim.Run(10_000)
		return start
	}
	if mk() != mk() {
		t.Fatal("queue wait not deterministic")
	}
}

func TestBatchStateString(t *testing.T) {
	for s, want := range map[BatchJobState]string{
		JobQueued: "queued", JobRunning: "running", JobFinished: "finished", JobCanceled: "canceled",
	} {
		if s.String() != want {
			t.Errorf("%v", s)
		}
	}
	if BatchJobState(9).String() != "unknown" {
		t.Error("unknown state should render")
	}
}

func TestInfoServiceRanking(t *testing.T) {
	g := TestbedGrADS(5)
	is := NewInfoService(g)
	for i := 0; i < 30; i++ {
		is.Observe(float64(i) * 30)
	}
	snap := is.Snapshot()
	if len(snap) != len(g.Hosts) {
		t.Fatalf("snapshot size %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Rank < snap[i].Rank {
			t.Fatal("snapshot not sorted by rank")
		}
	}
	// The slow 128 MB UIUC nodes must rank at the bottom; a best-cluster
	// node should rank in the upper half.
	bottom := snap[len(snap)-1].Host
	if bottom.Site != "uiuc-b" {
		t.Errorf("bottom-ranked host from %s, expected uiuc-b", bottom.Site)
	}
	for i, info := range snap {
		if info.Host.Site == "utk-a" && i > len(snap)/2 {
			t.Errorf("best-cluster host ranked %d of %d", i, len(snap))
		}
	}
}

func TestInfoServiceFallbackWithoutObservations(t *testing.T) {
	g := TestbedGrADS(5)
	is := NewInfoService(g)
	snap := is.Snapshot()
	for _, info := range snap {
		if info.Rank <= 0 {
			t.Fatalf("static fallback rank = %v for %s", info.Rank, info.Host.Name)
		}
		if info.Measurements != 0 {
			t.Fatal("phantom measurements")
		}
	}
}

func TestInfoServiceForecastSingleHost(t *testing.T) {
	g := TestbedGrADS(2)
	is := NewInfoService(g)
	is.Observe(0)
	info := is.Forecast(g.Hosts[2])
	if info.Host.ID != g.Hosts[2].ID {
		t.Fatal("Forecast returned wrong host")
	}
	if info.Measurements != 1 {
		t.Fatalf("measurements = %d", info.Measurements)
	}
}
