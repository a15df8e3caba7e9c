package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
)

// sweep runs the experiment called name over rows (nil: its own).
func sweep(t *testing.T, name string, opts Options, rows ...string) []ArmRow {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %s", name)
	}
	insts, err := e.Instances(rows)
	if err != nil {
		t.Fatal(err)
	}
	return Sweep(e, insts, opts)
}

func TestTable1RowFilter(t *testing.T) {
	rows := sweep(t, "table1", Options{Seed: 1}, "glassy-sat-sel_N210_n")
	if len(rows) != 2 || rows[0].Instance != "glassy-sat-sel_N210_n" ||
		rows[0].Label != "zchaff" || rows[1].Label != "gridsat" {
		t.Fatalf("filter broken: %+v", rows)
	}
}

func TestTable1TinyRowShape(t *testing.T) {
	rows := sweep(t, "table1", Options{Seed: 1}, "glassy-sat-sel_N210_n")
	z, g := rows[0].Result, rows[1].Result
	if z.Outcome != core.OutcomeSolved || g.Outcome != core.OutcomeSolved {
		t.Fatalf("tiny row failed: %v/%v", z.Outcome, g.Outcome)
	}
	// The paper's §4.1 claim: on small instances zChaff wins (the grid
	// pays launch/communication overhead).
	if z.VSec >= g.VSec {
		t.Errorf("tiny row speedup %.2f, paper reports a slowdown", z.VSec/g.VSec)
	}
}

func TestTable1LargeRowShape(t *testing.T) {
	rows := sweep(t, "table1", Options{Seed: 1}, "dp12s12")
	z, g := rows[0].Result, rows[1].Result
	if z.Outcome != core.OutcomeSolved || g.Outcome != core.OutcomeSolved {
		t.Fatalf("large row failed: %v/%v", z.Outcome, g.Outcome)
	}
	// dp12s12 is the paper's headline row (19.9x); any solid speedup
	// preserves the claim's shape.
	if z.VSec < 2*g.VSec {
		t.Errorf("dp12s12 speedup %.2f, want a clear win", z.VSec/g.VSec)
	}
	if g.MaxClients < 2 {
		t.Errorf("no parallelism on a large row: %d clients", g.MaxClients)
	}
}

func TestTable1GridSATOnlyShape(t *testing.T) {
	rows := sweep(t, "table1", Options{Seed: 1}, "Mat26")
	if z := rows[0].Result; z.Outcome != core.OutcomeMemOut {
		t.Errorf("Mat26 baseline outcome %v, paper reports MEM_OUT", z.Outcome)
	}
	if g := rows[1].Result; g.Outcome != core.OutcomeSolved {
		t.Errorf("Mat26 GridSAT outcome %v, paper solved it", g.Outcome)
	}
	if issues := Shape(rows); len(issues) != 0 {
		t.Errorf("shape issues: %v", issues)
	}
}

func TestTable1Deterministic(t *testing.T) {
	a := sweep(t, "table1", Options{Seed: 1}, "homer11")
	b := sweep(t, "table1", Options{Seed: 1}, "homer11")
	if a[0].Result.VSec != b[0].Result.VSec || a[1].Result.VSec != b[1].Result.VSec {
		t.Fatal("table rows not deterministic")
	}
}

// TestZChaffArmIgnoresSeed: the seed moves the grid's contention, not the
// sequential baseline on its dedicated host, so the zchaff column can be
// computed once per instance and reused at every seed. One solved row and
// one MEM_OUT row.
func TestZChaffArmIgnoresSeed(t *testing.T) {
	t.Parallel() // ≈ 6 s: a MEM_OUT row runs 1,455 vsec of one solver
	e, _ := Lookup("table1")
	e.Arms = e.Arms[:1]
	insts, err := e.Instances([]string{"w10_75", "w08_15"})
	if err != nil {
		t.Fatal(err)
	}
	a := Sweep(e, insts, Options{Seed: 1})
	b := Sweep(e, insts, Options{Seed: 2})
	if a[0].Result.Outcome != core.OutcomeSolved || a[1].Result.Outcome != core.OutcomeMemOut {
		t.Fatalf("outcomes %v, %v; want solved, MEM_OUT", a[0].Result.Outcome, a[1].Result.Outcome)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Result, b[i].Result) {
			t.Errorf("%s: seed 1 and 2 differ:\n%+v\n%+v", a[i].Instance, a[i].Result, b[i].Result)
		}
	}
}

func TestRenderTable1(t *testing.T) {
	rows := sweep(t, "table1", Options{Seed: 1}, "glassy-sat-sel_N210_n", "Mat26")
	out := RenderTable1(rows)
	for _, want := range []string{"File name", "glassy-sat-sel_N210_n", "Mat26", "MEM_OUT",
		"Problems solved by zChaff and GridSAT", "Problems solved by GridSAT only"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable2RowAndRender(t *testing.T) {
	// Use a scaled-down budget: this test checks plumbing, not outcomes.
	rows := sweep(t, "table2", Options{Scale: 0.02, Seed: 1}, "glassybp-v399-s499089820")
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "glassybp") || !strings.Contains(out, "paper") {
		t.Errorf("table 2 render broken:\n%s", out)
	}
}

// pairRows is one Table-1 instance's zchaff and gridsat rows.
func pairRows(name string, z, g core.SimResult) []ArmRow {
	return []ArmRow{{Instance: name, Label: "zchaff", Result: z}, {Instance: name, Label: "gridsat", Result: g}}
}

func TestShapeFlagsViolations(t *testing.T) {
	timeout, solved := core.SimResult{Outcome: core.OutcomeTimeout}, core.SimResult{Outcome: core.OutcomeSolved}
	if issues := Shape(pairRows("6pipe", timeout, solved)); len(issues) == 0 {
		t.Fatal("shape check missed a baseline failure on a both-solved row")
	}
	if issues := Shape(pairRows("comb1", timeout, solved)); len(issues) == 0 {
		t.Fatal("shape check missed a solved unsolved-row")
	}
	sat := core.SimResult{Outcome: core.OutcomeSolved}
	sat.Status = solver.StatusSAT
	if issues := Shape(pairRows("6pipe", sat, solved)); len(issues) != 1 || !strings.Contains(issues[0], "baseline says SAT, paper says UNSAT") {
		t.Fatalf("shape check on a wrong baseline verdict: %v", issues)
	}
	// Rows that are not zchaff-then-gridsat pairs fail loudly rather than
	// pair the wrong runs.
	pair := pairRows("6pipe", solved, solved)
	for _, rows := range [][]ArmRow{pair[:1], {pair[1], pair[0]}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shape paired %s, %s", rows[0].Label, rows[len(rows)-1].Label)
				}
			}()
			Shape(rows)
		}()
	}
}

func TestBlueHorizonOnly(t *testing.T) {
	// Tiny scale: exercises the batch-only path without the full budget.
	rows := sweep(t, "bhonly", Options{Scale: 0.002, Seed: 1})
	if len(rows) != 1 || rows[0].Instance != "par32-1-c" {
		t.Fatalf("rows %+v, want one on par32-1-c", rows)
	}
	if res := rows[0].Result; res.BatchStartVSec <= 0 && res.Outcome == core.OutcomeSolved {
		t.Error("solved without any clients?")
	}
}

func TestOutcomeCells(t *testing.T) {
	if outcomeCell(core.SimResult{Outcome: core.OutcomeMemOut}) != "MEM_OUT" {
		t.Error("MEM_OUT cell wrong")
	}
	if outcomeCell(core.SimResult{Outcome: core.OutcomeTimeout}) != "TIME_OUT" {
		t.Error("TIME_OUT cell wrong")
	}
	if outcomeCell(core.SimResult{Outcome: core.OutcomeSolved, VSec: 12.4}) != "12" {
		t.Error("solved cell wrong")
	}
	if speedupCell(core.SimResult{}, core.SimResult{}) != "-" {
		t.Error("empty speedup cell wrong")
	}
}

func TestShape2FlagsViolations(t *testing.T) {
	rows := []ArmRow{{Instance: "sha1", Result: core.SimResult{Outcome: core.OutcomeSolved, VSec: 10}}}
	if issues := Shape2(rows); len(issues) == 0 {
		t.Fatal("missed a solved never-row")
	}
	rows = []ArmRow{{Instance: "par32-1-c",
		Result: core.SimResult{Outcome: core.OutcomeSolved, VSec: 100, BatchStartVSec: 500}}}
	if issues := Shape2(rows); len(issues) == 0 {
		t.Fatal("missed par32 solving without the batch")
	}
	rows = []ArmRow{{Instance: "rand_net70-25-5",
		Result: core.SimResult{Outcome: core.OutcomeSolved, VSec: 100, BatchCanceled: true}}}
	if issues := Shape2(rows); len(issues) != 0 {
		t.Fatalf("false positive: %v", issues)
	}
}

// TestAblationsRun sweeps every experiment's arms over PH8 at a quarter of
// the budget: each arm solves under its label, the renderer shows every
// arm's label (the tables and bhonly, which print no labels: every
// instance; sched, which shows its own workload: neither), and the JSON
// the rows are written as reads back to the same rows.
func TestAblationsRun(t *testing.T) {
	php8 := gen.Instance{Name: "php8", Challenge: true, Build: func() *cnf.Formula { return gen.Pigeonhole(8) }}
	opts := Options{Scale: 0.25, Seed: 1}
	// What an arm must change, where the ablation exists to show it.
	checks := map[string]func(t *testing.T, rows []ArmRow){
		"sharelen": func(t *testing.T, rows []ArmRow) {
			if rows[0].Result.State.Shared != 0 {
				t.Error("share-len=0 still shared clauses")
			}
			if rows[2].Result.State.Shared == 0 {
				t.Error("share-len=10 shared nothing")
			}
		},
		"splittimeout": func(t *testing.T, rows []ArmRow) {
			// A tighter split timeout must split at least as eagerly.
			if first, last := rows[0].Result.State.Splits, rows[len(rows)-1].Result.State.Splits; first < last {
				t.Errorf("%s split %d times, %s split %d times", rows[0].Label, first, rows[len(rows)-1].Label, last)
			}
		},
		"split": func(t *testing.T, rows []ArmRow) {
			for _, r := range rows {
				if r.Result.State.Splits > 0 && r.Lineage.Leaves <= 1 {
					t.Errorf("%s split %d times but its lineage has %d leaves", r.Label, r.Result.State.Splits, r.Lineage.Leaves)
				}
			}
		},
	}
	// The renderers that print instances where the others print labels.
	showsInstance := map[string]bool{"table1": true, "table2": true, "bhonly": true}
	for _, a := range Experiments {
		t.Run(a.Name, func(t *testing.T) {
			rows := Sweep(a, []gen.Instance{php8}, opts)
			if len(rows) != len(a.Arms) {
				t.Fatalf("%d rows for %d arms", len(rows), len(a.Arms))
			}
			text := a.Render(rows, opts)
			for i, r := range rows {
				if r.Instance != "php8" || r.Label != a.Arms[i].Label {
					t.Errorf("row %d is %s/%s, want php8/%s", i, r.Instance, r.Label, a.Arms[i].Label)
				}
				if r.Result.Outcome != core.OutcomeSolved {
					t.Errorf("%s: %v", r.Label, r.Result.Outcome)
				}
				want := r.Label
				if showsInstance[a.Name] {
					want = r.Instance
				}
				if a.Rows != nil && !strings.Contains(text, want) {
					t.Errorf("render misses %s:\n%s", want, text)
				}
			}
			if check := checks[a.Name]; check != nil {
				check(t, rows)
			}
			path := filepath.Join(t.TempDir(), "rows.json")
			if err := WriteAblation(path, rows); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var back []ArmRow
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			var schema []struct {
				Result struct {
					Outcome, Status any
					State           map[string]any
				}
			}
			if err := json.Unmarshal(data, &schema); err != nil {
				t.Fatal(err)
			}
			for i, r := range schema {
				_, outcome := r.Result.Outcome.(string)
				_, status := r.Result.Status.(string)
				if _, clients := r.Result.State["clients"]; !outcome || !status || clients {
					t.Errorf("row %d: outcome %v, status %v as text, state.clients written %v", i, outcome, status, clients)
				}
			}
			for i := range rows {
				rows[i].Result.State.Clients = nil // WriteAblation leaves them out
			}
			if !reflect.DeepEqual(back, rows) {
				t.Errorf("rows changed through JSON:\n%+v\n%+v", back, rows)
			}
		})
	}
}

// TestAblationRowsOverride: rows replace an experiment's instances, a row
// the suite does not know is an error that names it, and the experiment
// that replays its own workload takes no rows.
func TestAblationRowsOverride(t *testing.T) {
	rows := sweep(t, "sharelen", Options{Scale: 0.05, Seed: 1}, "glassy-sat-sel_N210_n")
	if len(rows) != 4 {
		t.Fatalf("%d rows for 4 arms", len(rows))
	}
	for _, r := range rows {
		if r.Instance != "glassy-sat-sel_N210_n" {
			t.Errorf("row on %s", r.Instance)
		}
	}
	for _, name := range []string{"table1", "engine"} {
		e, _ := Lookup(name)
		_, err := e.Instances([]string{"glassy-sat-sel_N210_n", "no-such-row", "nor-this"})
		if err == nil || !strings.Contains(err.Error(), "no-such-row, nor-this") {
			t.Errorf("%s: unknown rows gave %v", name, err)
		}
	}
	// Given rows run in suite order (dp12s12 comes before Mat26), once each.
	e, _ := Lookup("table1")
	if insts, err := e.Instances([]string{"Mat26", "dp12s12", "Mat26"}); err != nil || len(insts) != 2 ||
		insts[0].Name != "dp12s12" || insts[1].Name != "Mat26" {
		t.Errorf("rows Mat26, dp12s12, Mat26 resolved to %+v, %v", names(insts), err)
	}
	if e, _ := Lookup("sched"); e.Rows != nil {
		t.Fatal("sched has rows")
	} else if _, err := e.Instances([]string{"homer12"}); err == nil {
		t.Error("sched took rows")
	}
}
