package bench

import (
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

func TestAblationShareLenRuns(t *testing.T) {
	f := gen.Pigeonhole(8)
	out := AblationShareLen(f, []int{0, 10}, Options{Seed: 1})
	if len(out) != 2 {
		t.Fatalf("got %d results", len(out))
	}
	for _, r := range out {
		if r.Result.Outcome != core.OutcomeSolved {
			t.Errorf("%s did not solve: %v", r.Label, r.Result.Outcome)
		}
	}
	if out[0].Result.State.Shared != 0 {
		t.Error("share-len=0 still shared clauses")
	}
	if out[1].Result.State.Shared == 0 {
		t.Error("share-len=10 shared nothing")
	}
	text := RenderAblation("x", out)
	if !strings.Contains(text, "share-len=0") {
		t.Error("render missing labels")
	}
}

func TestAblationPruningRuns(t *testing.T) {
	f := gen.Pigeonhole(8)
	out := AblationPruning(f, Options{Seed: 1})
	if len(out) != 2 || out[0].Result.Outcome != core.OutcomeSolved {
		t.Fatalf("pruning ablation broken: %+v", out)
	}
}

func TestAblationSplitTimeoutRuns(t *testing.T) {
	f := gen.Pigeonhole(8)
	out := AblationSplitTimeout(f, []float64{2, 40}, Options{Seed: 1})
	if len(out) != 2 {
		t.Fatal("sweep incomplete")
	}
	// A tighter split timeout must split at least as eagerly.
	if out[0].Result.State.Splits < out[1].Result.State.Splits {
		t.Errorf("timeout=2 split %d times, timeout=40 split %d times",
			out[0].Result.State.Splits, out[1].Result.State.Splits)
	}
}

func TestAblationRankingRuns(t *testing.T) {
	f := gen.Pigeonhole(8)
	out := AblationRanking(f, Options{Seed: 1})
	if len(out) != 2 || out[0].Label != "nws-ranked" {
		t.Fatalf("ranking ablation broken: %+v", out)
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

func TestAblationEngineRuns(t *testing.T) {
	f := gen.Pigeonhole(8)
	out := AblationEngine(f, Options{Seed: 1})
	if len(out) != 3 {
		t.Fatal("sweep incomplete")
	}
	for _, r := range out {
		if r.Result.Outcome != core.OutcomeSolved {
			t.Errorf("%s: %v", r.Label, r.Result.Outcome)
		}
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
