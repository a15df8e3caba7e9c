// Gridsim: reproduce the paper's Table-2 scenario on the deterministic
// simulated grid — a 27-host interactive testbed starts solving while a
// Blue Horizon batch request waits in queue; the batch nodes join when the
// allocation arrives, and the job is canceled if the problem is solved
// first. Times are virtual seconds (1 vsec ≈ 10 paper seconds), so this
// runs in moments on a laptop while modeling a multi-hour grid run.
package main

import (
	"fmt"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/grid"
)

func main() {
	// Scenario A: an instance the interactive testbed solves before the
	// batch allocation arrives — GridSAT cancels the Blue Horizon job,
	// exactly like rand-net70-25-5 and glassybp in the paper.
	runScenario("A: solved before the batch allocation (job canceled)",
		gen.Pigeonhole(9), 2000)

	// Scenario B: a short queue wait on a harder instance; the batch
	// nodes arrive in time to help (the paper's par32-1-c needed 33
	// interactive hours plus 8 more once Blue Horizon joined).
	runScenario("B: batch nodes join the computation",
		gen.Pigeonhole(10), 30)
}

func runScenario(title string, f *cnf.Formula, queueWaitVSec float64) {
	fmt.Printf("--- scenario %s ---\n", title)
	fmt.Printf("problem: %s (%d vars, %d clauses)\n", f.Comment, f.NumVars, f.NumClauses())

	g := grid.TestbedTable2(1)
	g.AddBlueHorizon(64)
	res := core.RunDistributed(core.RunnerConfig{
		Grid:   g,
		Master: core.MasterConfig{Formula: f},
		Client: core.ClientConfig{
			ShareMaxLen: 3,               // the paper's second-experiment setting
			MinRunTime:  5 * time.Second, // split-timeout floor, in virtual seconds
		},
		TimeoutVSec: 100_000,
		Seed:        1,
		Batch: &core.BatchPlan{
			Nodes:             64,
			WalltimeVSec:      720, // the 12-hour job at 1/60 scale
			MeanQueueWaitVSec: queueWaitVSec,
			TerminateOnEnd:    false,
		},
	})

	fmt.Printf("outcome: %v (%v) after %.1f virtual seconds\n", res.Outcome, res.Status, res.VSec)
	if res.BatchCanceled {
		fmt.Println("blue horizon: job canceled — solved before the allocation arrived")
	} else if res.BatchStartVSec > 0 {
		fmt.Printf("blue horizon: allocation started at %.1f vsec and joined the pool\n", res.BatchStartVSec)
	}
	fmt.Printf("peak clients: %d, splits: %d, clauses shared: %d, work: %d propagations\n\n",
		res.MaxClients, res.State.Splits, res.State.Shared, res.TotalProps)
}
