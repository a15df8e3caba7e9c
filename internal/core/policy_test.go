package core

import (
	"testing"

	"gridsat/internal/comm"
)

func TestSplitDecisionMemoryTrigger(t *testing.T) {
	d := SplitDecision{MemBudgetBytes: 1000, TransferTime: 100, MinRunTime: 1}
	if ask, why := d.ShouldSplit(800, 0); !ask || why != comm.SplitMemoryPressure {
		t.Fatalf("at 80%% budget: ask=%v why=%v", ask, why)
	}
	if ask, _ := d.ShouldSplit(799, 0); ask {
		t.Fatal("below threshold should not trigger")
	}
}

func TestSplitDecisionTimeoutTrigger(t *testing.T) {
	d := SplitDecision{MemBudgetBytes: 1 << 30, TransferTime: 50, MinRunTime: 1}
	if ask, _ := d.ShouldSplit(0, 99); ask {
		t.Fatal("below 2x transfer time should not trigger")
	}
	ask, why := d.ShouldSplit(0, 100)
	if !ask || why != comm.SplitTimeout {
		t.Fatalf("at 2x transfer time: ask=%v why=%v", ask, why)
	}
}

func TestSplitDecisionMinRunTimeFloor(t *testing.T) {
	d := SplitDecision{MemBudgetBytes: 1 << 30, TransferTime: 0.001, MinRunTime: 10}
	if ask, _ := d.ShouldSplit(0, 5); ask {
		t.Fatal("floor ignored: instant transfers must not cause split storms")
	}
	if ask, _ := d.ShouldSplit(0, 10); !ask {
		t.Fatal("floor reached but no split")
	}
}

func TestSplitDecisionMemoryWinsTies(t *testing.T) {
	d := SplitDecision{MemBudgetBytes: 100, TransferTime: 1, MinRunTime: 0}
	if _, why := d.ShouldSplit(80, 100); why != comm.SplitMemoryPressure {
		t.Fatalf("why = %v, want memory", why)
	}
}

func TestSplitDecisionNoBudget(t *testing.T) {
	d := SplitDecision{MemBudgetBytes: 0, TransferTime: 10, MinRunTime: 0}
	if ask, _ := d.ShouldSplit(1<<40, 5); ask {
		t.Fatal("zero budget should disable the memory trigger")
	}
}

func TestPickSplitTarget(t *testing.T) {
	cands := []Candidate{
		{ID: 1, Rank: 5, MemBytes: 1000},
		{ID: 2, Rank: 9, MemBytes: 50}, // best rank but under memory floor
		{ID: 3, Rank: 7, MemBytes: 1000},
	}
	got, ok := PickSplitTarget(cands, 100)
	if !ok || got.ID != 3 {
		t.Fatalf("picked %+v, want ID 3", got)
	}
	if _, ok := PickSplitTarget(nil, 0); ok {
		t.Fatal("empty candidate list produced a target")
	}
	if _, ok := PickSplitTarget(cands, 1<<40); ok {
		t.Fatal("memory floor ignored")
	}
}

func TestPickSplitTargetTieBreak(t *testing.T) {
	cands := []Candidate{{ID: 9, Rank: 5, MemBytes: 10}, {ID: 2, Rank: 5, MemBytes: 10}}
	got, _ := PickSplitTarget(cands, 0)
	if got.ID != 2 {
		t.Fatalf("tie broke to %d, want lower ID 2", got.ID)
	}
}
