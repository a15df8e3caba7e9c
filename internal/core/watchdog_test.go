package core

import (
	"testing"
)

// windowTick is the sample spacing of the synthetic windows: 13 samples
// span 120 s, every rule's window.
const windowTick = 10

// mkWindow builds n samples windowTick seconds apart from a per-tick
// shaping function.
func mkWindow(n int, shape func(i int, s *Sample)) []Sample {
	win := make([]Sample, n)
	for i := range win {
		t := float64(i * windowTick)
		win[i] = Sample{TSec: t, Busy: 3, Coverage: float64(i) * 0.01,
			MemBytes: 1 << 20,
			Clients: []SampleClient{
				{ID: 1, Busy: true, LastHeartbeatSec: t},
				{ID: 2, Busy: true, LastHeartbeatSec: t},
				{ID: 3, Busy: true, LastHeartbeatSec: t},
			}}
		shape(i, &win[i])
	}
	return win
}

func rules(alerts []Alert) map[string]int {
	m := map[string]int{}
	for _, a := range alerts {
		m[a.Rule]++
	}
	return m
}

func TestWatchdogRules(t *testing.T) {
	cases := []struct {
		name  string
		shape func(i int, s *Sample)
		want  map[string]int
	}{
		{
			name:  "healthy",
			shape: func(i int, s *Sample) {},
			want:  map[string]int{},
		},
		{
			name: "stall",
			// Coverage frozen from t=20 on while all clients stay busy:
			// flat across the whole 60 s stall window.
			shape: func(i int, s *Sample) {
				if i >= 2 {
					s.Coverage = 0.02
				}
			},
			want: map[string]int{RuleProgressStall: 1},
		},
		{
			name: "stall-but-idle",
			// Same flat coverage, but the cluster is idle — waiting for
			// work is not a stall.
			shape: func(i int, s *Sample) {
				s.Coverage = 0.02
				s.Busy = 0
			},
			want: map[string]int{},
		},
		{
			name: "straggler",
			// Client 2 flagged in every sample of the window.
			shape: func(i int, s *Sample) {
				s.Clients[1].Straggler = true
			},
			want: map[string]int{RuleStragglerPersist: 1},
		},
		{
			name: "straggler-intermittent",
			// Flagged most ticks but recovers periodically — no alert.
			shape: func(i int, s *Sample) {
				s.Clients[1].Straggler = i%4 != 0
			},
			want: map[string]int{},
		},
		{
			name: "mem-trend",
			// Memory grows 2.2x across the window, above the floor.
			shape: func(i int, s *Sample) {
				s.MemBytes = int64(64<<20) * int64(10+i)
			},
			want: map[string]int{RuleMemPressure: 1},
		},
		{
			name: "mem-trend-below-floor",
			// Same relative growth but absolute total under memMinBytes.
			shape: func(i int, s *Sample) {
				s.MemBytes = int64(10 + i)
			},
			want: map[string]int{},
		},
		{
			name: "heartbeat-gap",
			// Client 3's last heartbeat frozen at t=20; by t=120 the gap
			// is 100 s > 15 s threshold.
			shape: func(i int, s *Sample) {
				if s.Clients[2].LastHeartbeatSec > 20 {
					s.Clients[2].LastHeartbeatSec = 20
				}
			},
			want: map[string]int{RuleHeartbeatGap: 1},
		},
		{
			name: "heartbeat-gap-idle-client",
			// Silent but idle clients are fine (nothing assigned).
			shape: func(i int, s *Sample) {
				s.Clients[2].Busy = false
				if s.Clients[2].LastHeartbeatSec > 20 {
					s.Clients[2].LastHeartbeatSec = 20
				}
			},
			want: map[string]int{},
		},
		{
			name: "stall-and-straggler",
			// Two independent conditions fire together.
			shape: func(i int, s *Sample) {
				if i >= 2 {
					s.Coverage = 0.02
				}
				s.Clients[0].Straggler = true
			},
			want: map[string]int{RuleProgressStall: 1, RuleStragglerPersist: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			win := mkWindow(13, c.shape)
			got := rules(evalWatchdog(win))
			if len(got) != len(c.want) {
				t.Fatalf("fired %v, want %v", got, c.want)
			}
			for r, n := range c.want {
				if got[r] != n {
					t.Errorf("rule %s fired %d times, want %d (all: %v)", r, got[r], n, got)
				}
			}
		})
	}
}

func TestWatchdogWarmup(t *testing.T) {
	// A window shorter than every rule span must stay silent even when
	// coverage is flat — no false positives during startup.
	win := mkWindow(5, func(i int, s *Sample) { s.Coverage = 0 })
	if got := evalWatchdog(win); len(got) != 0 {
		t.Fatalf("warm-up window fired %v", got)
	}
	if got := evalWatchdog(nil); got != nil {
		t.Fatalf("empty window fired %v", got)
	}
}

func TestWatchdogCooldown(t *testing.T) {
	w := newWatchdog()
	fired := 0
	// 200 one-second ticks of a permanent stall: with a 60 s cooldown the
	// same (rule, subject) pair fires at t=60, 120 and 180, not 140 times.
	var ring []Sample
	for i := 0; i < 200; i++ {
		ring = append(ring, Sample{TSec: float64(i), Coverage: 0.5, Busy: 3})
		fired += len(w.observe(ring))
	}
	if fired != 3 {
		t.Fatalf("cooldown let %d alerts through, want 3", fired)
	}
	if len(w.feed()) != fired {
		t.Errorf("feed has %d entries, want %d", len(w.feed()), fired)
	}
	// The rules judge the widest rule span plus one baseline sample, not
	// the whole ring.
	if tail := windowTail(ring, maxWindowSec); len(tail) != 122 || tail[0].TSec != 78 {
		t.Errorf("tail holds %d samples from t=%v, want 122 from t=78", len(tail), tail[0].TSec)
	}
}

// TestSampleRingRetention: the ring keeps the newest ringSamples samples,
// and more only while the widest watchdog window reaches back past them.
func TestSampleRingRetention(t *testing.T) {
	for _, c := range []struct {
		tick float64
		want int
	}{
		{1, ringSamples}, // the live tick: 120 s fits in 256 samples
		{0.25, 482},      // a 120 s window and its baseline
	} {
		h := newHarness(t, MasterConfig{})
		m := h.m
		for i := 0; i < 600; i++ {
			h.now = float64(i) * c.tick
			m.sampleTick()
		}
		if last := m.samples[len(m.samples)-1].TSec; len(m.samples) != c.want || last != 599*c.tick {
			t.Errorf("tick %v: ring holds %d samples up to t=%v, want %d up to %v",
				c.tick, len(m.samples), last, c.want, 599*c.tick)
		}
	}
}
