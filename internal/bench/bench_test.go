package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gridsat/internal/core"
	"gridsat/internal/gen"
)

func TestTable1RowFilter(t *testing.T) {
	rows := Table1(Options{Rows: []string{"glassy-sat-sel_N210_n"}, Seed: 1})
	if len(rows) != 1 || rows[0].Inst.Name != "glassy-sat-sel_N210_n" {
		t.Fatalf("filter broken: %d rows", len(rows))
	}
}

func TestTable1TinyRowShape(t *testing.T) {
	rows := Table1(Options{Rows: []string{"glassy-sat-sel_N210_n"}, Seed: 1})
	r := rows[0]
	if r.ZChaff.Outcome != core.OutcomeSolved || r.GridSAT.Outcome != core.OutcomeSolved {
		t.Fatalf("tiny row failed: %v/%v", r.ZChaff.Outcome, r.GridSAT.Outcome)
	}
	// The paper's §4.1 claim: on small instances zChaff wins (the grid
	// pays launch/communication overhead).
	if r.SpeedUp >= 1 {
		t.Errorf("tiny row speedup %.2f, paper reports a slowdown", r.SpeedUp)
	}
}

func TestTable1LargeRowShape(t *testing.T) {
	rows := Table1(Options{Rows: []string{"dp12s12"}, Seed: 1})
	r := rows[0]
	if r.ZChaff.Outcome != core.OutcomeSolved || r.GridSAT.Outcome != core.OutcomeSolved {
		t.Fatalf("large row failed: %v/%v", r.ZChaff.Outcome, r.GridSAT.Outcome)
	}
	// dp12s12 is the paper's headline row (19.9x); any solid speedup
	// preserves the claim's shape.
	if r.SpeedUp < 2 {
		t.Errorf("dp12s12 speedup %.2f, want a clear win", r.SpeedUp)
	}
	if r.GridSAT.MaxClients < 2 {
		t.Errorf("no parallelism on a large row: %d clients", r.GridSAT.MaxClients)
	}
}

func TestTable1GridSATOnlyShape(t *testing.T) {
	rows := Table1(Options{Rows: []string{"Mat26"}, Seed: 1})
	r := rows[0]
	if r.ZChaff.Outcome != core.OutcomeMemOut {
		t.Errorf("Mat26 baseline outcome %v, paper reports MEM_OUT", r.ZChaff.Outcome)
	}
	if r.GridSAT.Outcome != core.OutcomeSolved {
		t.Errorf("Mat26 GridSAT outcome %v, paper solved it", r.GridSAT.Outcome)
	}
	if issues := Shape(rows); len(issues) != 0 {
		t.Errorf("shape issues: %v", issues)
	}
}

func TestTable1Deterministic(t *testing.T) {
	a := Table1(Options{Rows: []string{"homer11"}, Seed: 1})
	b := Table1(Options{Rows: []string{"homer11"}, Seed: 1})
	if a[0].ZChaff.VSec != b[0].ZChaff.VSec || a[0].GridSAT.VSec != b[0].GridSAT.VSec {
		t.Fatal("table rows not deterministic")
	}
}

func TestRenderTable1(t *testing.T) {
	rows := Table1(Options{Rows: []string{"glassy-sat-sel_N210_n", "Mat26"}, Seed: 1})
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
	rows := Table2(Options{Rows: []string{"glassybp-v399-s499089820"}, Scale: 0.02, Seed: 1})
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "glassybp") || !strings.Contains(out, "paper") {
		t.Errorf("table 2 render broken:\n%s", out)
	}
}

func TestShapeFlagsViolations(t *testing.T) {
	rows := []Row{{
		Inst:    gen.Instance{Name: "fake", Section: gen.SecBothSolved, Expected: gen.StatusSAT},
		ZChaff:  core.SimResult{Outcome: core.OutcomeTimeout},
		GridSAT: core.SimResult{Outcome: core.OutcomeSolved},
	}}
	if issues := Shape(rows); len(issues) == 0 {
		t.Fatal("shape check missed a baseline failure on a both-solved row")
	}
	rows[0].Inst.Section = gen.SecUnsolved
	if issues := Shape(rows); len(issues) == 0 {
		t.Fatal("shape check missed a solved unsolved-row")
	}
}

func TestBlueHorizonOnly(t *testing.T) {
	inst, ok := gen.ByName("par32-1-c")
	if !ok {
		t.Fatal("par32-1-c missing from suite")
	}
	// Tiny scale: exercises the batch-only path without the full budget.
	res := BlueHorizonOnly(inst, Options{Scale: 0.002, Seed: 1})
	if res.BatchStartVSec <= 0 && res.Outcome == core.OutcomeSolved {
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
	if speedupCell(Row{}) != "-" {
		t.Error("empty speedup cell wrong")
	}
}

func TestShape2FlagsViolations(t *testing.T) {
	rows := []Row{{
		Inst:    gen.Instance{Name: "sha1"},
		GridSAT: core.SimResult{Outcome: core.OutcomeSolved, VSec: 10},
	}}
	if issues := Shape2(rows); len(issues) == 0 {
		t.Fatal("missed a solved never-row")
	}
	rows = []Row{{
		Inst:    gen.Instance{Name: "par32-1-c"},
		GridSAT: core.SimResult{Outcome: core.OutcomeSolved, VSec: 100, BatchStartVSec: 500},
	}}
	if issues := Shape2(rows); len(issues) == 0 {
		t.Fatal("missed par32 solving without the batch")
	}
	rows = []Row{{
		Inst: gen.Instance{Name: "rand_net70-25-5"},
		GridSAT: core.SimResult{Outcome: core.OutcomeSolved, VSec: 100,
			BatchCanceled: true},
	}}
	if issues := Shape2(rows); len(issues) != 0 {
		t.Fatalf("false positive: %v", issues)
	}
}

// TestAblationsRun sweeps every ablation's arms over PH8 at a quarter of
// the budget: each arm solves under its label, the ablation's renderer
// shows every label, and the JSON the rows are written as reads back to
// the same rows.
func TestAblationsRun(t *testing.T) {
	f := gen.Pigeonhole(8)
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
	for _, a := range Ablations {
		t.Run(a.Name, func(t *testing.T) {
			rows := Sweep("php8", f, a.Arms, opts)
			if len(rows) != len(a.Arms) {
				t.Fatalf("%d rows for %d arms", len(rows), len(a.Arms))
			}
			text := a.Render(rows)
			for i, r := range rows {
				if r.Instance != "php8" || r.Label != a.Arms[i].Label {
					t.Errorf("row %d is %s/%s, want php8/%s", i, r.Instance, r.Label, a.Arms[i].Label)
				}
				if r.Result.Outcome != core.OutcomeSolved {
					t.Errorf("%s: %v", r.Label, r.Result.Outcome)
				}
				if !strings.Contains(text, r.Label) {
					t.Errorf("render misses %s:\n%s", r.Label, text)
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

// TestAblationRowsOverride: -rows replaces an ablation's instances, and an
// unknown name is skipped.
func TestAblationRowsOverride(t *testing.T) {
	a := Ablations[0]
	rows := a.Run(Options{Rows: []string{"no-such-row", "glassy-sat-sel_N210_n"}, Scale: 0.05, Seed: 1})
	if len(rows) != len(a.Arms) {
		t.Fatalf("%d rows for %d arms", len(rows), len(a.Arms))
	}
	for _, r := range rows {
		if r.Instance != "glassy-sat-sel_N210_n" {
			t.Errorf("row on %s", r.Instance)
		}
	}
}
