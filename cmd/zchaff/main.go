// Command zchaff is the sequential baseline solver in the role the
// original zChaff plays in the paper: a single-machine Chaff-style CDCL
// engine reading DIMACS CNF and reporting SAT/UNSAT with a model.
//
// Usage:
//
//	zchaff [flags] problem.cnf
//	zchaff [flags] < problem.cnf
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/proof"
	"gridsat/internal/solver"
)

func main() {
	var (
		maxConflicts = flag.Int64("max-conflicts", 0, "conflict budget (0 = unlimited)")
		timeout      = flag.Duration("timeout", 0, "wall-clock budget (0 = unlimited)")
		memBytes     = flag.Int64("mem", 0, "clause-database memory budget in bytes (0 = unlimited)")
		noPrune      = flag.Bool("no-prune", false, "disable level-0 clause pruning")
		noRestart    = flag.Bool("no-restart", false, "disable restarts")
		quiet        = flag.Bool("q", false, "suppress the model and statistics")
		seed         = flag.Int64("seed", 0, "heuristic tie-break seed")
		proofPath    = flag.String("proof", "", "write a DRUP/RUP refutation proof here (checkable with gridsat checkproof)")
	)
	flag.Parse()

	f, err := readProblem(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "zchaff:", err)
		os.Exit(2)
	}

	opts := solver.Fidelity2003() // the paper's sequential baseline
	opts.PruneLevel0 = !*noPrune
	opts.Seed = *seed
	if *noRestart {
		opts.RestartBase = 0
	}
	var proofFile *os.File
	var pw *proof.Writer
	if *proofPath != "" {
		var err error
		proofFile, err = os.Create(*proofPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zchaff:", err)
			os.Exit(2)
		}
		pw = proof.NewWriter(proofFile)
		opts.OnLemma = pw.Hook()
	}
	s := solver.New(f, opts)
	start := time.Now()
	res := s.Solve(solver.Limits{
		MaxConflicts:   *maxConflicts,
		MaxTime:        *timeout,
		MaxMemoryBytes: *memBytes,
	})
	elapsed := time.Since(start)

	if pw != nil {
		if err := pw.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "zchaff: writing proof:", err)
			os.Exit(2)
		}
		proofFile.Close()
		if res.Status == solver.StatusUNSAT {
			fmt.Fprintf(os.Stderr, "c proof: %d lemmas written to %s\n", pw.Lemmas(), *proofPath)
		}
	}
	switch res.Status {
	case solver.StatusSAT:
		fmt.Println("s SATISFIABLE")
		if err := f.Verify(res.Model); err != nil {
			fmt.Fprintln(os.Stderr, "zchaff: model verification FAILED:", err)
			os.Exit(1)
		}
		if !*quiet {
			printModel(res.Model)
		}
	case solver.StatusUNSAT:
		fmt.Println("s UNSATISFIABLE")
	default:
		fmt.Printf("s UNKNOWN (%s)\n", res.Reason)
	}
	if !*quiet {
		st := s.Stats()
		fmt.Printf("c time=%.3fs decisions=%d conflicts=%d propagations=%d learned=%d deleted=%d restarts=%d mem=%dKB\n",
			elapsed.Seconds(), st.Decisions, st.Conflicts, st.Propagations,
			st.Learned, st.Deleted, st.Restarts, s.MemoryBytes()/1024)
	}
	if res.Status == solver.StatusUnknown {
		os.Exit(1)
	}
}

func readProblem(path string) (*cnf.Formula, error) {
	if path == "" || path == "-" {
		return cnf.ParseDIMACS(os.Stdin)
	}
	return cnf.ParseDIMACSFile(path)
}

func printModel(m cnf.Assignment) {
	fmt.Print("v")
	for v := 0; v < len(m); v++ {
		lit := v + 1
		if m[v] == cnf.False {
			lit = -lit
		}
		fmt.Printf(" %d", lit)
	}
	fmt.Println(" 0")
}
