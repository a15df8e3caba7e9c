package core

import (
	"testing"
)

// testWatchCfg is a small, fast rule set used by the synthetic-window
// tests: every rule judges over a 10s window with a 5s heartbeat gap.
func testWatchCfg() WatchdogConfig {
	return WatchdogConfig{
		StallWindowSec:     10,
		StallMinBusy:       2,
		StragglerWindowSec: 10,
		MemWindowSec:       10,
		MemGrowthFactor:    1.5,
		MemMinBytes:        1 << 20,
		HeartbeatGapSec:    5,
		CooldownSec:        30,
	}
}

// mkWindow builds n samples at 1 Hz from a per-tick shaping function.
func mkWindow(n int, shape func(i int, s *Sample)) []Sample {
	win := make([]Sample, n)
	for i := range win {
		win[i] = Sample{TSec: float64(i), Busy: 3, Coverage: float64(i) * 0.01,
			MemBytes: 1 << 20,
			Clients: []SampleClient{
				{ID: 1, Busy: true, LastHeartbeatSec: float64(i)},
				{ID: 2, Busy: true, LastHeartbeatSec: float64(i)},
				{ID: 3, Busy: true, LastHeartbeatSec: float64(i)},
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
			// Coverage frozen from t=2 on while all clients stay busy:
			// flat span 12s > 10s window.
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
			// Memory doubles across the window, above the floor.
			shape: func(i int, s *Sample) {
				s.MemBytes = int64(1<<20) * int64(10+i)
			},
			want: map[string]int{RuleMemPressure: 1},
		},
		{
			name: "mem-trend-below-floor",
			// Same relative growth but absolute total under MemMinBytes.
			shape: func(i int, s *Sample) {
				s.MemBytes = int64(10 + i)
			},
			want: map[string]int{},
		},
		{
			name: "heartbeat-gap",
			// Client 3's last heartbeat frozen at t=2; by t=12 the gap
			// is 10s > 5s threshold.
			shape: func(i int, s *Sample) {
				if s.Clients[2].LastHeartbeatSec > 2 {
					s.Clients[2].LastHeartbeatSec = 2
				}
			},
			want: map[string]int{RuleHeartbeatGap: 1},
		},
		{
			name: "heartbeat-gap-idle-client",
			// Silent but idle clients are fine (nothing assigned).
			shape: func(i int, s *Sample) {
				s.Clients[2].Busy = false
				if s.Clients[2].LastHeartbeatSec > 2 {
					s.Clients[2].LastHeartbeatSec = 2
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
			got := rules(evalWatchdog(testWatchCfg(), win))
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
	if got := evalWatchdog(testWatchCfg(), win); len(got) != 0 {
		t.Fatalf("warm-up window fired %v", got)
	}
	if got := evalWatchdog(testWatchCfg(), nil); got != nil {
		t.Fatalf("empty window fired %v", got)
	}
}

func TestWatchdogCooldown(t *testing.T) {
	cfg := testWatchCfg()
	w := newWatchdog(cfg)
	fired := 0
	// 60 ticks of a permanent stall: with a 30s cooldown the same
	// (rule, subject) pair fires ceil((60-10)/30) ≈ 2 times, not 50.
	var ring []Sample
	for i := 0; i < 60; i++ {
		ring = append(ring, Sample{TSec: float64(i), Coverage: 0.5, Busy: 3})
		fired += len(w.observe(ring))
	}
	if fired < 1 || fired > 3 {
		t.Fatalf("cooldown let %d alerts through, want 1..3", fired)
	}
	if len(w.feed()) != fired {
		t.Errorf("feed has %d entries, want %d", len(w.feed()), fired)
	}
	// The rules judge the widest rule span plus one baseline sample, not
	// the whole ring.
	if tail := windowTail(ring, cfg.maxWindowSec()); len(tail) != 12 || tail[0].TSec != 48 {
		t.Errorf("tail holds %d samples from t=%v, want 12 from t=48", len(tail), tail[0].TSec)
	}
}

// TestSampleRingRetention: the ring keeps the newest ringSamples samples,
// and more only while the widest watchdog window reaches back past them.
func TestSampleRingRetention(t *testing.T) {
	for _, c := range []struct {
		memWindow float64
		want      int
	}{
		{0, ringSamples},  // defaults: 120 s fits in 256 one-second ticks
		{400, 402},        // a 400 s window and its baseline
		{-1, ringSamples}, // disabled rules shrink nothing below the floor
	} {
		now := 0.0
		m := bareMaster(t, &now)
		m.wd = newWatchdog(WatchdogConfig{MemWindowSec: c.memWindow})
		for i := 0; i < 600; i++ {
			now = float64(i)
			m.sampleTick()
		}
		if len(m.samples) != c.want || m.samples[len(m.samples)-1].TSec != 599 {
			t.Errorf("mem window %v: ring holds %d samples up to t=%v, want %d up to 599",
				c.memWindow, len(m.samples), m.samples[len(m.samples)-1].TSec, c.want)
		}
	}
}

func TestWatchdogDisabledRule(t *testing.T) {
	cfg := testWatchCfg()
	cfg.StallWindowSec = -1 // negative disables
	win := mkWindow(13, func(i int, s *Sample) {
		if i >= 2 {
			s.Coverage = 0.02
		}
	})
	if got := evalWatchdog(cfg, win); len(got) != 0 {
		t.Fatalf("disabled stall rule fired %v", got)
	}
}

func TestWatchdogDefaults(t *testing.T) {
	got := WatchdogConfig{}.withDefaults()
	if got != DefaultWatchdogConfig() {
		t.Fatalf("zero config does not default: %+v", got)
	}
	// Explicit values survive defaulting.
	c := WatchdogConfig{StallWindowSec: 3}
	if c.withDefaults().StallWindowSec != 3 {
		t.Fatal("explicit StallWindowSec overwritten")
	}
}
