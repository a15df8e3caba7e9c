package gen

import (
	"strconv"

	"gridsat/internal/cnf"
)

// Status is the expected satisfiability status of a benchmark instance.
type Status int

// Expected instance statuses. StatusUnknown marks rows that were open
// problems in the paper (annotated "*" in Tables 1 and 2).
const (
	StatusUnknown Status = iota
	StatusSAT
	StatusUNSAT
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusSAT:
		return "SAT"
	case StatusUNSAT:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// PaperOutcome encodes how a solver fared on a row in the paper's tables.
type PaperOutcome float64

// Sentinel outcomes for rows the paper's zChaff run could not finish.
const (
	PaperTimeOut PaperOutcome = -1 // "TIME_OUT" in Table 1
	PaperMemOut  PaperOutcome = -2 // "MEM_OUT" in Table 1
)

// Seconds returns the outcome as seconds, valid only when Finished.
func (o PaperOutcome) Seconds() float64 { return float64(o) }

// Finished reports whether the outcome is a completed-run time.
func (o PaperOutcome) Finished() bool { return o >= 0 }

// String renders the outcome the way the paper's tables do.
func (o PaperOutcome) String() string {
	switch o {
	case PaperTimeOut:
		return "TIME_OUT"
	case PaperMemOut:
		return "MEM_OUT"
	default:
		return fmtSeconds(float64(o))
	}
}

// Section identifies which part of Table 1 a row belongs to.
type Section int

// Table-1 sections, in the paper's order.
const (
	SecBothSolved  Section = iota // solved by both zChaff and GridSAT
	SecGridSATOnly                // solved by GridSAT only
	SecUnsolved                   // solved by neither (re-attempted in Table 2)
)

// Instance is one row of the reproduced benchmark suite: the paper's
// instance, its published results, and the synthetic stand-in formula.
type Instance struct {
	// Name is the paper's instance file name (without ".cnf").
	Name string
	// Expected satisfiability status per the paper.
	Expected Status
	// Section of Table 1 the row appears in.
	Section Section
	// PaperZChaff and PaperGridSAT are the published times/outcomes.
	PaperZChaff  PaperOutcome
	PaperGridSAT PaperOutcome
	// PaperMaxClients is the published "Max # of clients" column.
	PaperMaxClients int
	// Challenge marks rows from the SAT2002 "challenging" category, which
	// the paper ran with the doubled 12000 s overall timeout.
	Challenge bool
	// Table2 marks rows re-run in Table 2 (testbed + Blue Horizon);
	// Table2Solved gives the paper's Table-2 result in seconds, 0 for "X"
	// (still unsolved) — par32-1-c's "33hrs+(8hrs on BH)" is stored as the
	// summed seconds.
	Table2       bool
	Table2Result float64
	// Build generates the synthetic stand-in formula. Deterministic.
	Build func() *cnf.Formula
}

// Suite returns the reproduced SAT2002 rows, in the paper's Table-1 order.
// The synthetic stand-ins preserve each row's expected status and its
// difficulty class (tiny / medium / large / beyond-sequential), which is
// what the evaluation's shape depends on.
//
// Difficulty classes (sequential CDCL on one simulated host):
//   - rows the paper solves in <300 s        → "tiny" stand-ins
//   - rows in the 10³–10⁴ s range            → "medium"/"large" stand-ins
//   - zChaff TIME_OUT/MEM_OUT rows           → stand-ins exceeding the
//     scaled sequential budget but solvable by the distributed run
//   - rows neither solves                    → stand-ins exceeding both
//     (except the Table-2 reattempts)
func Suite() []Instance {
	return []Instance{
		// ---- Section 1: solved by both zChaff and GridSAT ----
		// Each stand-in was calibrated so the sequential baseline lands
		// near the paper's zChaff column at the 1:10 time scale
		// (1 virtual second = 1000 propagations on the dedicated host).
		{Name: "6pipe", Expected: StatusUNSAT, Section: SecBothSolved, PaperZChaff: 6322, PaperGridSAT: 4877, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return r3u(195, 2) }},
		{Name: "avg-checker-5-34", Expected: StatusUNSAT, Section: SecBothSolved, PaperZChaff: 1222, PaperGridSAT: 1107, PaperMaxClients: 9,
			Build: func() *cnf.Formula { return r3u(160, 3) }},
		{Name: "bart15", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 5507, PaperGridSAT: 673, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return r3u(210, 3) }},
		{Name: "cache_05", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 1730, PaperGridSAT: 1565, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return plantHard(200, 4.5, 1) }},
		{Name: "cnt09", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 3651, PaperGridSAT: 1610, PaperMaxClients: 12,
			Build: func() *cnf.Formula { return plantHard(220, 4.5, 1) }},
		{Name: "dp12s12", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 10587, PaperGridSAT: 532, PaperMaxClients: 8,
			Build: func() *cnf.Formula { return plantHard(260, 4.8, 1) }},
		{Name: "homer11", Expected: StatusUNSAT, Section: SecBothSolved, PaperZChaff: 2545, PaperGridSAT: 1794, PaperMaxClients: 10,
			Build: func() *cnf.Formula { return r3u(170, 4) }},
		{Name: "homer12", Expected: StatusUNSAT, Section: SecBothSolved, PaperZChaff: 14250, PaperGridSAT: 4400, PaperMaxClients: 33,
			Build: func() *cnf.Formula { return r3u(195, 1) }},
		{Name: "ip38", Expected: StatusUNSAT, Section: SecBothSolved, PaperZChaff: 4794, PaperGridSAT: 1278, PaperMaxClients: 11,
			Build: func() *cnf.Formula { return r3u(185, 2) }},
		{Name: "rand_net50-60-5", Expected: StatusUNSAT, Section: SecBothSolved, PaperZChaff: 16242, PaperGridSAT: 1725, PaperMaxClients: 20,
			Build: func() *cnf.Formula { return r3u(205, 1) }},
		{Name: "vda_gr_rcs_w8", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 1427, PaperGridSAT: 681, PaperMaxClients: 15,
			Build: func() *cnf.Formula { return r3u(170, 5) }},
		{Name: "w08_14", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 14449, PaperGridSAT: 1906, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return plantHard(280, 4.5, 6) }},
		{Name: "w10_75", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 506, PaperGridSAT: 252, PaperMaxClients: 2,
			Build: func() *cnf.Formula { return r3u(160, 1) }},
		{Name: "Urquhart-s3-b1", Expected: StatusUNSAT, Section: SecBothSolved, PaperZChaff: 529, PaperGridSAT: 526, PaperMaxClients: 4,
			Build: func() *cnf.Formula { return r3u(120, 1) }},
		{Name: "ezfact48_5", Expected: StatusUNSAT, Section: SecBothSolved, PaperZChaff: 127, PaperGridSAT: 196, PaperMaxClients: 1,
			Build: func() *cnf.Formula { return Pigeonhole(7) }},
		{Name: "glassy-sat-sel_N210_n", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 7, PaperGridSAT: 68, PaperMaxClients: 1,
			Build: func() *cnf.Formula { return r3u(120, 210) }},
		// grid_10_20 is the paper's one large slowdown row (0.31x): its
		// "non-realizable circuit" resists search-space splitting. The
		// symmetric pigeonhole principle shows the identical pathology.
		{Name: "grid_10_20", Expected: StatusUNSAT, Section: SecBothSolved, PaperZChaff: 967, PaperGridSAT: 3165, PaperMaxClients: 12,
			Build: func() *cnf.Formula { return Pigeonhole(9) }},
		{Name: "hanoi5", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 2961, PaperGridSAT: 1852, PaperMaxClients: 33,
			Build: func() *cnf.Formula { return r3u(250, 1) }},
		{Name: "hanoi6_fast", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 1116, PaperGridSAT: 831, PaperMaxClients: 4,
			Build: func() *cnf.Formula { return r3u(155, 1) }},
		{Name: "lisa20_1_a", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 181, PaperGridSAT: 243, PaperMaxClients: 2,
			Build: func() *cnf.Formula { return r3u(165, 1) }},
		{Name: "lisa21_3_a", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 1792, PaperGridSAT: 337, PaperMaxClients: 4,
			Build: func() *cnf.Formula { return r3u(225, 1212) }},
		{Name: "pyhala-braun-sat-30-4-02", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 18, PaperGridSAT: 84, PaperMaxClients: 1,
			Build: func() *cnf.Formula { return r3u(200, 1) }},
		{Name: "qg2-8", Expected: StatusSAT, Section: SecBothSolved, PaperZChaff: 180, PaperGridSAT: 224, PaperMaxClients: 2,
			Build: func() *cnf.Formula { return r3u(140, 1) }},

		// ---- Section 2: solved by GridSAT only ----
		// Rows the paper's zChaff lost to its 18000 s timeout get random
		// 3-SAT stand-ins (low conflict density: the time budget fires
		// first); rows it lost to memory get pigeonhole stand-ins (high
		// conflict rate and long learned clauses: memory fires first).
		{Name: "7pipe_bug", Expected: StatusSAT, Section: SecGridSATOnly, PaperZChaff: PaperTimeOut, PaperGridSAT: 5058, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return r3u(225, 7101) }},
		{Name: "dp10u09", Expected: StatusUNSAT, Section: SecGridSATOnly, PaperZChaff: PaperTimeOut, PaperGridSAT: 2566, PaperMaxClients: 26,
			Build: func() *cnf.Formula { return r3u(240, 1) }},
		{Name: "rand_net40-60-10", Expected: StatusUNSAT, Section: SecGridSATOnly, PaperZChaff: PaperTimeOut, PaperGridSAT: 1690, PaperMaxClients: 30,
			Build: func() *cnf.Formula { return r3u(225, 909) }},
		{Name: "f2clk_40", Expected: StatusUNSAT, Section: SecGridSATOnly, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: 3304, PaperMaxClients: 23,
			Build: func() *cnf.Formula { return r3u(225, 555) }},
		{Name: "Mat26", Expected: StatusUNSAT, Section: SecGridSATOnly, PaperZChaff: PaperMemOut, PaperGridSAT: 1886, PaperMaxClients: 21,
			Build: func() *cnf.Formula { return r4u(90, 2) }},
		{Name: "7pipe", Expected: StatusUNSAT, Section: SecGridSATOnly, PaperZChaff: PaperMemOut, PaperGridSAT: 6673, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return r4u(90, 4) }},
		{Name: "comb2", Expected: StatusUNSAT, Section: SecGridSATOnly, Challenge: true, PaperZChaff: PaperMemOut, PaperGridSAT: 9951, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return r4u(100, 2) }},
		{Name: "pyhala-braun-unsat-40-4-01", Expected: StatusUNSAT, Section: SecGridSATOnly, PaperZChaff: PaperMemOut, PaperGridSAT: 2425, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return r4u(90, 5) }},
		{Name: "pyhala-braun-unsat-40-4-02", Expected: StatusUNSAT, Section: SecGridSATOnly, PaperZChaff: PaperMemOut, PaperGridSAT: 2564, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return r4u(95, 4) }},
		{Name: "w08_15", Expected: StatusSAT, Section: SecGridSATOnly, PaperZChaff: PaperMemOut, PaperGridSAT: 3141, PaperMaxClients: 34,
			Build: func() *cnf.Formula { return plant4(100, 11, 1) }},

		// ---- Section 3: solved by neither in Table 1 (Table 2 reattempts) ----
		// The satisfiable rows that must stay unsolved in Table 2 as well
		// (sha1, cnt10, hanoi6) are sized with a margin, not picked by seed:
		// whether ~90 clients stumble on a planted model within the batch
		// walltime is luck, and any change to message timing reshuffles it
		// (PR 13 re-pinned them 40 variables up for that reason).
		{Name: "comb1", Expected: StatusUnknown, Section: SecUnsolved, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: PaperTimeOut, PaperMaxClients: 34,
			Table2: true, Table2Result: 0,
			Build: func() *cnf.Formula { return r3x(360, 4.5, 7) }},
		{Name: "par32-1-c", Expected: StatusSAT, Section: SecUnsolved, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: PaperTimeOut, PaperMaxClients: 34,
			Table2: true, Table2Result: (33 + 8) * 3600,
			Build: func() *cnf.Formula { return plantHard(410, 4.8, 7) }},
		{Name: "rand_net70-25-5", Expected: StatusUNSAT, Section: SecUnsolved, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: PaperTimeOut, PaperMaxClients: 34,
			Table2: true, Table2Result: 30837,
			// Ratio 4.24, not r3u's 4.26: the row has to outlast Table 1's
			// 1200 vs on GrADS yet fall to Table 2's faster testbed before
			// the batch start at 1801 vs; dropping the last few clauses
			// centres it in that window (re-pinned in PR 13).
			Build: func() *cnf.Formula { return r3x(255, 4.24, 3) }},
		{Name: "sha1", Expected: StatusSAT, Section: SecUnsolved, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: PaperTimeOut, PaperMaxClients: 34,
			Table2: true, Table2Result: 0,
			Build: func() *cnf.Formula { return plantHard(460, 5.0, 2) }},
		{Name: "3bitadd_31", Expected: StatusUNSAT, Section: SecUnsolved, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: PaperTimeOut, PaperMaxClients: 34,
			Table2: true, Table2Result: 0,
			Build: func() *cnf.Formula { return r3x(360, 4.5, 8) }},
		{Name: "cnt10", Expected: StatusSAT, Section: SecUnsolved, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: PaperTimeOut, PaperMaxClients: 34,
			Table2: true, Table2Result: 0,
			Build: func() *cnf.Formula { return plantHard(430, 4.8, 6) }},
		{Name: "glassybp-v399-s499089820", Expected: StatusSAT, Section: SecUnsolved, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: PaperTimeOut, PaperMaxClients: 34,
			Table2: true, Table2Result: 5472,
			Build: func() *cnf.Formula { return plantHard(355, 4.8, 13) }},
		{Name: "hgen3-v300-s1766565160", Expected: StatusUnknown, Section: SecUnsolved, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: PaperTimeOut, PaperMaxClients: 34,
			Table2: true, Table2Result: 0,
			Build: func() *cnf.Formula { return r3x(340, 4.45, 2) }},
		{Name: "hanoi6", Expected: StatusSAT, Section: SecUnsolved, Challenge: true, PaperZChaff: PaperTimeOut, PaperGridSAT: PaperTimeOut, PaperMaxClients: 34,
			Table2: true, Table2Result: 0,
			Build: func() *cnf.Formula { return plantHard(480, 5.0, 5) }},
	}
}

// r3u builds a random 3-SAT instance at the 4.26 phase-transition ratio.
func r3u(n int, seed int64) *cnf.Formula {
	return RandomKSAT(n, int(4.26*float64(n)), 3, seed)
}

// r3x builds a random 3-SAT instance at an explicit ratio; slightly above
// the transition it is unsatisfiable with high probability and far harder
// than threshold instances of equal size.
func r3x(n int, ratio float64, seed int64) *cnf.Formula {
	return RandomKSAT(n, int(ratio*float64(n)), 3, seed)
}

// r4u builds a random 4-SAT instance at the 9.9 phase-transition ratio.
// 4-SAT learns much longer clauses per conflict than 3-SAT, so these rows
// exhaust the baseline's memory before its time budget — the MEM_OUT
// failure mode of the paper's Table 1.
func r4u(n int, seed int64) *cnf.Formula {
	return RandomKSAT(n, int(9.9*float64(n)), 4, seed)
}

// plant4 builds a doubly-planted (guaranteed SAT) hard 4-SAT instance.
func plant4(n int, ratio float64, seed int64) *cnf.Formula {
	return PlantedKSAT(n, int(ratio*float64(n)), 4, seed)
}

// plantHard builds a doubly-planted (guaranteed SAT, CDCL-hard) instance.
func plantHard(n int, ratio float64, seed int64) *cnf.Formula {
	return PlantedKSAT(n, int(ratio*float64(n)), 3, seed)
}

// ByName returns the suite instance with the given paper name.
func ByName(name string) (Instance, bool) {
	for _, inst := range Suite() {
		if inst.Name == name {
			return inst, true
		}
	}
	return Instance{}, false
}

// Table2Rows returns the rows re-attempted in the paper's Table 2, in order.
func Table2Rows() []Instance {
	var out []Instance
	for _, inst := range Suite() {
		if inst.Table2 {
			out = append(out, inst)
		}
	}
	return out
}

func fmtSeconds(s float64) string {
	switch {
	case s >= 100:
		return strconv.Itoa(int(s + 0.5))
	case s >= 10:
		return strconv.FormatFloat(s, 'f', 1, 64)
	default:
		return strconv.FormatFloat(s, 'f', 2, 64)
	}
}
