// Distributed: run the live GridSAT runtime — one master and six clients
// in this process, connected by the in-process transport — on a hard
// unsatisfiable instance. The same Master/Client code deploys over TCP via
// cmd/gridsat; this example shows the full paper protocol in action:
// registration, initial assignment, split requests, peer-to-peer
// subproblem transfers (Figure 3) and global clause sharing.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"gridsat/internal/comm"
	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
)

func main() {
	problem := gen.Pigeonhole(9) // UNSAT: 10 pigeons into 9 holes
	fmt.Printf("problem: %s (%d vars, %d clauses)\n",
		problem.Comment, problem.NumVars, problem.NumClauses())

	tr := comm.NewInprocTransport()
	master, err := core.NewMaster(core.MasterConfig{
		Transport:       tr,
		ListenAddr:      "master",
		Formula:         problem,
		Timeout:         5 * time.Minute,
		ExpectedClients: 6,
	})
	if err != nil {
		log.Fatal(err)
	}

	type outcome struct {
		res core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := master.Run()
		done <- outcome{res, err}
	}()

	// Launch six clients, as if the scheduler had started them on six
	// grid hosts of differing capability.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		cl, err := core.NewClient(core.ClientConfig{
			Transport:      tr,
			MasterAddr:     "master",
			HostName:       fmt.Sprintf("host-%02d", i),
			FreeMemBytes:   int64(64+32*i) << 20,
			SpeedHint:      1.0 + 0.1*float64(i),
			ShareMaxLen:    10, // the paper's first-experiment setting
			SliceConflicts: 500,
			MinRunTime:     20 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("client %d registered (p2p %s)\n", cl.ID(), cl.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.Run(); err != nil {
				log.Println("client:", err)
			}
		}()
	}

	o := <-done
	wg.Wait()
	if o.err != nil {
		log.Fatal(o.err)
	}
	fmt.Printf("\nresult: %v in %.2fs wall time\n", o.res.Status, o.res.Wall.Seconds())
	fmt.Printf("max simultaneous clients: %d\n", o.res.MaxClients)
	fmt.Printf("completed subproblem splits: %d\n", o.res.State.Splits)
	fmt.Printf("learned clauses shared globally: %d\n", o.res.State.Shared)
	if o.res.Status != solver.StatusUNSAT {
		log.Fatal("expected UNSAT for the pigeonhole principle")
	}
}
