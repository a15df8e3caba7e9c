package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gridsat/internal/cnf"
	"gridsat/internal/comm"
	"gridsat/internal/core"
	"gridsat/internal/gen"
	"gridsat/internal/solver"
	"gridsat/internal/trace"
)

// mode is one command's parse step and the flag set it parses with.
type mode struct {
	flags func() *flag.FlagSet
	parse func(args []string) (any, error)
}

var modes = map[string]mode{
	"run": {
		func() *flag.FlagSet { return runFlags(&runCmd{}) },
		func(args []string) (any, error) { return parseRun(args) },
	},
	"master": {
		func() *flag.FlagSet { return masterFlags(&masterCmd{}) },
		func(args []string) (any, error) { return parseMaster(args) },
	},
	"serve": {
		func() *flag.FlagSet { return serveFlags(&serveCmd{}) },
		func(args []string) (any, error) { return parseServe(args) },
	},
	"client": {
		func() *flag.FlagSet { return clientFlags(&core.ClientConfig{}) },
		func(args []string) (any, error) { return parseClient(args) },
	},
	"sim": {
		func() *flag.FlagSet { return simFlags(&simCmd{}) },
		func(args []string) (any, error) { return parseSim(args) },
	},
}

// flagRow sets one flag to a value that is not its default; field is the
// one leaf of the parsed command that must change, and want what it reads.
type flagRow struct{ flag, value, field, want string }

var flagTable = map[string][]flagRow{
	"run": {
		{"clients", "7", "job.Clients", "7"},
		{"threads", "97", "job.Client.Threads", "97"},
		{"share-len", "3", "job.Client.ShareMaxLen", "3"},
		{"split-strategy", "dilemma", "job.Client.SplitStrategy", "dilemma"},
		{"timeout", "90s", "job.Master.Timeout", "1m30s"},
		{"metrics-addr", "127.0.0.1:9", "job.Master.MetricsAddr", "127.0.0.1:9"},
		{"report", "r.json", "out.report", "r.json"},
		{"log", "debug", "out.log", "debug"},
		{"trace", "f.jsonl", "out.trace", "f.jsonl"},
		{"trace-perfetto", "p.json", "out.perfetto", "p.json"},
		{"trace-dot", "t.dot", "out.dot", "t.dot"},
	},
	"master": {
		{"listen", ":7171", "cfg.ListenAddr", ":7171"},
		{"min-mem", "1024", "cfg.MinMemBytes", "1024"},
		{"timeout", "90s", "cfg.Timeout", "1m30s"},
		{"expect-clients", "5", "cfg.ExpectedClients", "5"},
		{"metrics-addr", "127.0.0.1:9", "cfg.MetricsAddr", "127.0.0.1:9"},
		{"report", "r.json", "out.report", "r.json"},
		{"log", "warn", "out.log", "warn"},
		{"trace", "f.jsonl", "out.trace", "f.jsonl"},
		{"trace-perfetto", "p.json", "out.perfetto", "p.json"},
		{"trace-dot", "t.dot", "out.dot", "t.dot"},
	},
	"serve": {
		{"listen", ":7171", "cfg.ListenAddr", ":7171"},
		{"api-addr", "127.0.0.1:9", "cfg.MetricsAddr", "127.0.0.1:9"},
		{"max-jobs", "3", "cfg.Admission.MaxActive", "3"},
		{"mem-budget", "4096", "cfg.Admission.MemBudgetBytes", "4096"},
		{"min-mem", "0", "cfg.MinMemBytes", "0"},
		{"timeout", "90s", "cfg.Timeout", "1m30s"},
		{"log", "", "out.log", ""},
		{"trace", "f.jsonl", "out.trace", "f.jsonl"},
		{"trace-perfetto", "p.json", "out.perfetto", "p.json"},
		{"bundle-dir", "bundles", "cfg.BundleDir", "bundles"},
	},
	"client": {
		{"master", "example:7070", "MasterAddr", "example:7070"},
		{"listen", ":7272", "ListenAddr", ":7272"},
		{"mem", "1024", "FreeMemBytes", "1024"},
		{"speed", "2.5", "SpeedHint", "2.5"},
		{"threads", "97", "Threads", "97"},
		{"share-len", "3", "ShareMaxLen", "3"},
		{"split-strategy", "dilemma", "SplitStrategy", "dilemma"},
	},
	"sim": {
		{"testbed", "table2", "testbed", "table2"},
		{"timeout-vsec", "30", "cfg.TimeoutVSec", "30"},
		{"threads", "97", "cfg.Client.Threads", "97"},
		{"share-len", "3", "cfg.Client.ShareMaxLen", "3"},
		{"split-strategy", "dilemma", "cfg.Client.SplitStrategy", "dilemma"},
		{"seed", "9", "cfg.Seed", "9"},
		{"sequential", "true", "sequential", "true"},
		{"batch", "true", "batch", "true"},
		{"timeline", "t.csv", "timeline", "t.csv"},
		{"trace", "f.jsonl", "out.trace", "f.jsonl"},
		{"trace-perfetto", "p.json", "out.perfetto", "p.json"},
		{"trace-dot", "t.dot", "out.dot", "t.dot"},
		{"replay", "true", "replay", "true"},
		{"watchdog", "true", "cfg.Watchdog", "true"},
		{"bundle-dir", "bundles", "cfg.Master.BundleDir", "bundles"},
	},
}

// leaves flattens a parsed command into its leaf fields, by dotted path.
func leaves(v reflect.Value, path string, out map[string]string) map[string]string {
	if v.Kind() == reflect.Struct {
		for i := range v.NumField() {
			leaves(v.Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), out)
		}
		return out
	}
	if v.Type() == reflect.TypeFor[time.Duration]() {
		out[path] = time.Duration(v.Int()).String() // unexported parents hide String
	} else {
		out[path] = fmt.Sprint(v)
	}
	return out
}

// TestFlagsLandInOneField holds every flag of the five configuring modes to
// the one field it sets: parsed with the flag, the command differs from the
// parsed defaults in exactly that field. A flag without a row, or a row
// without a flag, fails too, so no flag goes missing unnoticed.
func TestFlagsLandInOneField(t *testing.T) {
	for name, m := range modes {
		fs := m.flags()
		rows := flagTable[name]
		for _, r := range rows {
			if fs.Lookup(r.flag) == nil {
				t.Errorf("%s: the table lists -%s, which the mode no longer has", name, r.flag)
			}
		}
		fs.VisitAll(func(f *flag.Flag) {
			if !slices.ContainsFunc(rows, func(r flagRow) bool { return r.flag == f.Name }) {
				t.Errorf("%s: -%s has no row in the table", name, f.Name)
			}
		})
		parsed := func(args ...string) map[string]string {
			c, err := m.parse(args)
			if err != nil {
				t.Fatalf("%s %v: %v", name, args, err)
			}
			return leaves(reflect.ValueOf(c), "", map[string]string{})
		}
		base := parsed()
		for _, r := range rows {
			got := parsed("-"+r.flag+"="+r.value, "f.cnf")
			var moved []string
			for path, v := range got {
				if v != base[path] && path != "instance" {
					moved = append(moved, path)
				}
			}
			if len(moved) != 1 || moved[0] != r.field || got[r.field] != r.want {
				t.Errorf("%s -%s=%s moved %v (%s = %q), want only %s = %q",
					name, r.flag, r.value, moved, r.field, got[r.field], r.field, r.want)
			}
		}
	}
}

// TestBadNamesAreRejected: a flag value that names no split strategy or
// log level is an error at parse time, not a silent default.
func TestBadNamesAreRejected(t *testing.T) {
	for _, tc := range []struct {
		mode string
		args []string
		want string
	}{
		{"run", []string{"-split-strategy", "halves"}, "halves"},
		{"client", []string{"-split-strategy", "halves"}, "halves"},
		{"sim", []string{"-split-strategy", "halves"}, "halves"},
		{"run", []string{"-log", "degub"}, "degub"},
		{"master", []string{"-log", "degub"}, "degub"},
		{"serve", []string{"-log", "degub"}, "degub"},
		{"serve", []string{"-api-addr", ""}, "-api-addr"},
	} {
		if _, err := modes[tc.mode].parse(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: error %v, want one naming %q", tc.mode, tc.args, err, tc.want)
		}
	}
}

// TestEmptyLogIsOff: -log "" turns structured logging off for run and
// master, whose default it is; serve logs at info unless told otherwise.
func TestEmptyLogIsOff(t *testing.T) {
	if l, err := runLogger(""); l != nil || err != nil {
		t.Fatalf("runLogger(\"\") = %v, %v, want no logger and no error", l, err)
	}
	run, _ := parseRun(nil)
	master, _ := parseMaster(nil)
	serve, _ := parseServe(nil)
	if run.out.log != "" || master.out.log != "" || serve.out.log != "info" {
		t.Fatalf("default -log: run %q, master %q, serve %q", run.out.log, master.out.log, serve.out.log)
	}
}

// TestLogLevelNames: -log takes slog's four level names in any case; any
// other value is an error that lists them.
func TestLogLevelNames(t *testing.T) {
	for in, want := range map[string]slog.Level{"debug": slog.LevelDebug,
		"INFO": slog.LevelInfo, "Warn": slog.LevelWarn, "error": slog.LevelError} {
		if got, err := parseLevel(in); got != want || err != nil {
			t.Errorf("parseLevel(%q) = %v, %v, want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"bogus", "degub", "warning"} {
		if _, err := parseLevel(in); err == nil || !strings.Contains(err.Error(), "debug, info, warn or error") {
			t.Errorf("parseLevel(%q) error = %v, want one listing the accepted levels", in, err)
		}
	}
}

// A clause longer than the solver can hold is a parse error, which main
// prints and exits 1 on, not a panic inside solver.New.
func TestSolveRefusesOverlongClause(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d 1\n", cnf.MaxClauseSize+1)
	for v := 1; v <= cnf.MaxClauseSize+1; v++ {
		fmt.Fprintf(&b, "%d ", v)
	}
	b.WriteString("0\n")
	path := filepath.Join(t.TempDir(), "long.cnf")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var pe *cnf.ParseError
	if err := cmdSolve([]string{path}); !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("gridsat solve: err = %v, want a ParseError on line 2", err)
	}
}

// TestReportMatchesResult writes the -report file of a finished live run
// and reads it back: every top-level key agrees with the Result, the run's
// final ClusterState sits under "state" with the keys earlier reports kept
// at the top level, and job rows carry no model.
func TestReportMatchesResult(t *testing.T) {
	fl := trace.NewFlight(nil)
	cfg := core.JobConfig{Clients: 4, Timeout: time.Minute, Client: core.ClientConfig{
		FreeMemBytes: 64 << 20, MinRunTime: 5 * time.Millisecond,
	}}
	cfg.Master.Flight = fl
	res, err := core.Solve(gen.Pigeonhole(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != solver.StatusUNSAT || len(res.State.Jobs) != 1 {
		t.Fatalf("got %v with %d job rows, want UNSAT and job 0 alone", res.Status, len(res.State.Jobs))
	}
	res.State.Jobs[0].Model = []int{1, -2} // a SAT row's model stays out of the report
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeReport(path, "pigeonhole-8", res, fl); err != nil {
		t.Fatal(err)
	}
	if res.State.Jobs[0].Model == nil {
		t.Error("writeReport cleared the Result's own model")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Instance    string              `json:"instance"`
		Status      string              `json:"status"`
		WallSeconds float64             `json:"wall_seconds"`
		MaxClients  int                 `json:"max_clients"`
		Threads     int                 `json:"threads"`
		Comm        comm.Totals         `json:"comm"`
		Flight      trace.FlightSummary `json:"flight"`
		State       struct {
			Splits  *int             `json:"splits"`
			Shared  *int             `json:"shared"`
			Clients []map[string]any `json:"clients"`
			Jobs    []map[string]any `json:"jobs"`
		} `json:"state"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Instance != "pigeonhole-8" || rep.Status != res.Status.String() || rep.WallSeconds <= 0 ||
		rep.MaxClients != res.MaxClients || rep.Threads != res.Threads {
		t.Errorf("report header %+v disagrees with the result", rep)
	}
	if !reflect.DeepEqual(rep.Comm, res.Comm) || rep.Comm.MsgsSent == 0 || rep.Comm.BytesSent == 0 {
		t.Errorf("report comm %+v != result comm %+v", rep.Comm, res.Comm)
	}
	if rep.Flight.Events != int64(fl.Len()) || rep.Flight.Verdict != res.Status.String() {
		t.Errorf("report flight %+v, want %d events ending %s", rep.Flight, fl.Len(), res.Status)
	}
	st := rep.State
	if st.Splits == nil || *st.Splits != res.State.Splits || st.Shared == nil || *st.Shared != res.State.Shared ||
		len(st.Clients) != len(res.State.Clients) || len(st.Jobs) != 1 {
		t.Fatalf("report state %+v disagrees with the result's", st)
	}
	j0 := st.Jobs[0]
	if j0["verdict"] != res.Status.String() {
		t.Errorf("state.jobs[0].verdict = %v, want %s", j0["verdict"], res.Status)
	}
	for _, k := range []string{"first_assign_at", "queue_wait_sec", "solve_sec", "turnaround_sec"} {
		if _, ok := j0[k]; !ok {
			t.Errorf("state.jobs[0] has no %q key: %v", k, j0)
		}
	}
	if _, ok := j0["model"]; ok {
		t.Errorf("state.jobs[0] carries a model: %v", j0["model"])
	}
}

// TestSimTimelineCSV runs `gridsat sim -timeline` end to end and reads the
// busy-clients CSV back: its header, a first sample with a busy client, a
// last one at zero (every run ends with the count collapsing), times that
// never decrease, and one row per point of the run's Timeline.
func TestSimTimelineCSV(t *testing.T) {
	dir := t.TempDir()
	instance, csvPath := filepath.Join(dir, "ph8.cnf"), filepath.Join(dir, "busy.csv")
	if err := cnf.WriteDIMACSFile(instance, gen.Pigeonhole(8)); err != nil {
		t.Fatal(err)
	}
	args := []string{"-threads", "1", "-timeline", csvPath, instance}
	if err := cmdSim(args); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if lines[0] != "vsec,busy_clients" {
		t.Fatalf("header %q, want vsec,busy_clients", lines[0])
	}
	rows := lines[1:]
	busy := make([]int, len(rows))
	last := 0.0
	for i, row := range rows {
		var vsec float64
		if _, err := fmt.Sscanf(row, "%g,%d", &vsec, &busy[i]); err != nil {
			t.Fatalf("row %d %q: %v", i, row, err)
		}
		if vsec < last {
			t.Fatalf("row %d at %g vsec, after %g", i, vsec, last)
		}
		last = vsec
	}
	if len(rows) < 2 || busy[0] < 1 || busy[len(busy)-1] != 0 {
		t.Fatalf("busy counts %v: want a first sample >= 1 and a last at 0", busy)
	}

	c, err := parseSim(args)
	if err != nil {
		t.Fatal(err)
	}
	f, err := loadCNF(instance)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := c.config(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(core.RunDistributed(cfg).Timeline); len(rows) != n {
		t.Errorf("%d CSV rows, the run's Timeline has %d points", len(rows), n)
	}
}
