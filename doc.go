// Package gridsat is a from-scratch Go reproduction of "GridSAT: A
// Chaff-based Distributed SAT Solver for the Grid" (Chrabakh & Wolski,
// SC 2003).
//
// The implementation lives under internal/:
//
//   - internal/cnf     — variables, literals, clauses, DIMACS I/O
//   - internal/gen     — synthetic stand-ins for the SAT2002 suite
//   - internal/brute   — the naive DPLL baseline (§2.1) and test oracle
//   - internal/solver  — the zChaff-style CDCL engine (§2) with the
//     distributed hooks of §3 (splits, clause sharing, checkpoints)
//   - internal/nws     — Network Weather Service forecasting
//   - internal/grid    — the simulated Grid substrate and DES kernel
//   - internal/comm    — the EveryWare-style messaging layer
//   - internal/obs     — metrics registry and its HTTP exposition
//   - internal/trace   — flight recorder, split lineage, replay check
//   - internal/proof   — DRUP refutation proofs and their checker
//   - internal/core    — GridSAT itself: master, client, scheduler, and
//     the deterministic simulated runtime behind the benchmarks
//   - internal/bench   — Table-1/Table-2 regeneration and ablations
//
// Executables: cmd/gridsat (solve/run/master/client/serve/sim/top/
// checkproof), cmd/zchaff, cmd/satgen, cmd/benchtab. The Example
// functions of internal/cnf and internal/solver are the runnable
// walkthroughs of the engine API. See DESIGN.md for the system inventory
// and per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package gridsat
