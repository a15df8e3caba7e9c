package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"gridsat/internal/cnf"
	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sim_golden.txt from this build's simulations")

const goldenFile = "testdata/sim_golden.txt"

// goldenRuns are the `gridsat sim` runs whose summary line, verdict and
// flight log testdata/sim_golden.txt pins (every one at the default -seed 1
// on the grads testbed unless its flags say otherwise): the split
// strategies, the pool-saturating bart15, the Blue Horizon batch job,
// portfolio clients and the suite rows in between.
var goldenRuns = []struct {
	instance string
	flags    []string
}{
	{"ph8", []string{"-threads", "1"}},
	{"ph8", []string{"-threads", "1", "-split-strategy", "dilemma"}},
	{"bart15", []string{"-threads", "1"}},
	{"r3-210", []string{"-threads", "1", "-split-strategy", "dilemma"}},
	{"ph8", []string{"-threads", "1", "-testbed", "table2", "-batch"}},
	{"bart15", []string{"-threads", "1", "-testbed", "table2", "-batch"}},
	{"r3-200", []string{"-threads", "1"}},
	{"homer12", []string{"-threads", "1", "-split-strategy", "dilemma"}},
	{"cnt09", []string{"-threads", "1"}},
	{"r3-210", []string{"-threads", "2"}},
}

// goldenInstance builds what satgen writes for a golden run's instance:
// ph8 is `-family pigeonhole -n 8`, r3-N is `-family random3sat -n N
// -ratio 4.3 -seed 7`, anything else `-family suite -name NAME`.
func goldenInstance(t *testing.T, name string) *cnf.Formula {
	switch name {
	case "ph8":
		return gen.Pigeonhole(8)
	case "r3-200", "r3-210":
		var n int
		fmt.Sscanf(name, "r3-%d", &n)
		ratio := 4.3
		return gen.RandomKSAT(n, int(ratio*float64(n)), 3, 7)
	}
	inst, ok := gen.ByName(name)
	if !ok {
		t.Fatalf("no suite instance %q", name)
	}
	return inst.Build()
}

// simGolden runs every golden run as cmdSim would and renders the records
// the golden file holds: the command, the verdict, the summary line and the
// flight log's SHA-256.
func simGolden(t *testing.T) string {
	var out strings.Builder
	for _, run := range goldenRuns {
		c, err := parseSim(append(run.flags, run.instance))
		if err != nil {
			t.Fatal(err)
		}
		fl := trace.NewFlight(nil)
		cfg, err := c.config(goldenInstance(t, run.instance), fl)
		if err != nil {
			t.Fatal(err)
		}
		res := core.RunDistributed(cfg)
		var log bytes.Buffer
		if err := trace.WriteJSONL(&log, fl.Events()); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "sim %s %s\n%v\n%s\nflight %x\n\n", strings.Join(run.flags, " "), run.instance,
			res.Status, simSummary(res), sha256.Sum256(log.Bytes()))
	}
	return out.String()
}

// TestSimGolden holds `gridsat sim` to testdata/sim_golden.txt, at
// GOMAXPROCS 1 and at the default: the DES computes its clients on that
// many workers, and none of it may show. A change that means to move the
// simulation regenerates the file with -update in the same commit, so the
// file's history names the change behind every moved figure.
func TestSimGolden(t *testing.T) {
	procs := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		procs = append(procs, n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, n := range procs {
		runtime.GOMAXPROCS(n)
		got := simGolden(t)
		if i == 0 && *updateGolden {
			if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(goldenFile)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("GOMAXPROCS=%d: sim runs moved (-update rewrites %s):\n%s", n, goldenFile, lineDiff(string(want), got))
		}
	}
}

// lineDiff lists the lines of got that differ from want, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n   got %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
