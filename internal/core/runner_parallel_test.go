package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gridsat/internal/gen"
	"gridsat/internal/grid"
	"gridsat/internal/trace"
)

// TestParallelDESIsTheSerialDES: the worker count is runtime.GOMAXPROCS(0)
// and must not show anywhere in a run. With one worker a quantum is computed
// whole before the event loop looks at it again — the serial kernel's
// order; with two or eight, quanta overlap with each other and with the
// loop. Every path that launches, lands or joins a quantum must give the
// same SimResult and the same flight log, byte for byte, at all three.
func TestParallelDESIsTheSerialDES(t *testing.T) {
	ph8 := func() RunnerConfig {
		cfg := desConfig(gen.Pigeonhole(8), 10_000)
		cfg.Client.MinRunTime = vsecDuration(5)
		return cfg
	}
	configs := []struct {
		name  string
		mk    func() RunnerConfig
		check func(*testing.T, SimResult, []trace.FEvent)
	}{
		{"first-decision", ph8, nil},
		{"dilemma", func() RunnerConfig {
			cfg := ph8()
			cfg.Client.SplitStrategy = "dilemma"
			return cfg
		}, nil},
		{"batch-terminate-on-end", func() RunnerConfig {
			// Ends by the batch job's walltime with every client mid-quantum.
			g := grid.TestbedTable2(3)
			g.AddBlueHorizon(8)
			cfg := desConfig(gen.Pigeonhole(12), 100_000)
			cfg.Grid = g
			cfg.Batch = &BatchPlan{Nodes: 8, WalltimeVSec: 30, MeanQueueWaitVSec: 20, TerminateOnEnd: true}
			return cfg
		}, func(t *testing.T, res SimResult, _ []trace.FEvent) {
			if res.Outcome != OutcomeTimeout || res.TotalProps == 0 {
				t.Fatalf("outcome %v after %d propagations, want a TIME_OUT with quanta in flight", res.Outcome, res.TotalProps)
			}
		}},
		{"crash-mid-quantum-and-idle", func() RunnerConfig {
			cfg := ph8()
			// Host 31 (ucsd-05) registers first at this seed and computes the
			// root subproblem from 2 vs on; host 20 has registered by 8 vs and
			// has nothing to do before the first split, at 10 vs.
			cfg.Failures = []FailurePlan{{HostID: 20, AtVSec: 8}, {HostID: 31, AtVSec: 30}}
			return cfg
		}, func(t *testing.T, _ SimResult, evs []trace.FEvent) {
			if n := trace.CountByKind(evs)[trace.FEvRecover]; n != 1 {
				t.Fatalf("%d recoveries, want 1: one crash of a computing client, one of an idle one", n)
			}
		}},
		{"migration", func() RunnerConfig {
			g := grid.TestbedGrADS(1)
			for _, h := range g.Hosts {
				h.Speed = 0.3
				h.BaseAvail = 0.4
			}
			g.AddBlueHorizon(8)
			cfg := desConfig(gen.Pigeonhole(8), 100_000)
			cfg.Grid = g
			cfg.MaxClients = 2
			cfg.MigrationFactor = 2
			cfg.MonitorPeriodVSec = 10
			cfg.Batch = &BatchPlan{Nodes: 8, WalltimeVSec: 100_000, MeanQueueWaitVSec: 15}
			return cfg
		}, func(t *testing.T, res SimResult, _ []trace.FEvent) {
			if res.Migrations == 0 {
				t.Fatal("config no longer migrates; pick one that does")
			}
		}},
		{"portfolio-k2", func() RunnerConfig {
			cfg := ph8()
			cfg.Client.Threads = 2
			return cfg
		}, nil},
		{"three-jobs-preempt-cancel", func() RunnerConfig {
			cfg := desSchedConfig([]SimJob{
				{Name: "long", Formula: gen.Pigeonhole(8), Priority: 1, ArrivalVSec: 1},
				{Name: "late", Formula: gen.Pigeonhole(7), Priority: 1, ArrivalVSec: 25},
				{Name: "doomed", Formula: gen.Pigeonhole(10), Priority: 1, ArrivalVSec: 30, CancelVSec: 60},
			}, "fair-share", 100_000)
			cfg.MaxClients = 2
			return cfg
		}, func(t *testing.T, res SimResult, _ []trace.FEvent) {
			if doomed := res.Jobs[2]; res.Preemptions == 0 || doomed.Verdict != "CANCELLED" || doomed.StartVSec == 0 {
				t.Fatalf("%d preemptions, doomed job %+v; pick a config that preempts, and cancels a job that is computing", res.Preemptions, doomed)
			}
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			var want SimResult
			var wantLog []byte
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				fl := trace.NewFlight(nil)
				cfg := tc.mk()
				cfg.Master.Flight = fl
				res := RunDistributed(cfg)
				var log bytes.Buffer
				if err := fl.WriteJSONL(&log); err != nil {
					t.Fatal(err)
				}
				if procs == 1 {
					want, wantLog = res, log.Bytes()
					if tc.check != nil {
						tc.check(t, res, fl.Events())
					} else if res.Outcome != OutcomeSolved {
						t.Fatalf("outcome %v", res.Outcome)
					}
					continue
				}
				if !reflect.DeepEqual(res, want) {
					t.Errorf("GOMAXPROCS=%d: result differs from the one-worker run:\n got %+v\nwant %+v", procs, res, want)
				}
				if !bytes.Equal(log.Bytes(), wantLog) {
					t.Errorf("GOMAXPROCS=%d: flight log (%d bytes) differs from the one-worker run's (%d bytes)", procs, log.Len(), len(wantLog))
				}
			}
		})
	}
}

// TestProgressBoundOrdersTheLoop drives the event loop against a quantum
// whose progress the test controls. The loop must not run the event at
// T = 5 while the quantum (t0 = 0, one propagation per virtual second) has
// published 5 or fewer propagations — it could still end at or before 5 —
// must run it once 6 are published, without waiting for the quantum to
// finish, and must give the end event the place in the order reserved at
// launch: after what was scheduled for the same instant before the launch,
// before what was scheduled after it.
func TestProgressBoundOrdersTheLoop(t *testing.T) {
	r := &runner{cfg: RunnerConfig{TimeoutVSec: 100}, sim: grid.NewSim()}
	defer r.startWorkers(1, 1)()

	var order []string
	ran := make(chan struct{})
	r.sim.At(10, func() { order = append(order, "tie-before") })
	r.launchQuantum(1, func(publish func(int64)) (longest, total int64) {
		for done := int64(1); done <= 6; done++ {
			publish(done)
		}
		select {
		case <-ran:
		case <-time.After(10 * time.Second):
			t.Error("the event at T=5 did not run with 6 propagations published: the loop waits for the quantum to finish")
		}
		return 10, 12
	}, func() { order = append(order, "end") })
	q := r.quanta[0]
	r.sim.At(5, func() {
		r.mu.Lock()
		bound, finished := q.notBefore(), q.finished
		r.mu.Unlock()
		if !(r.sim.Now() < bound) || finished {
			t.Errorf("event at T=%v ran with the quantum's bound at %v (finished=%v)", r.sim.Now(), bound, finished)
		}
		order = append(order, "T=5")
		close(ran)
	})
	r.sim.At(10, func() { order = append(order, "tie-after") })

	r.run()
	if want := []string{"T=5", "tie-before", "end", "tie-after"}; !reflect.DeepEqual(order, want) {
		t.Errorf("events ran as %v, want %v", order, want)
	}
	if r.sim.Now() != 10 || r.res.TotalProps != 12 || len(r.quanta) != 0 {
		t.Errorf("now=%v TotalProps=%d in flight=%d, want 10, 12, 0", r.sim.Now(), r.res.TotalProps, len(r.quanta))
	}
}
