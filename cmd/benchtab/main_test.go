package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownRowsExit2: a -rows name the suite does not know is a usage
// error that names it, before anything runs, for a table and an ablation
// alike; so is an entry, requested beside another, that is unknown or
// takes no rows: the first entry does not run.
func TestUnknownRowsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "1", "-rows", "nosuchrow", "-q"}, "nosuchrow"},
		{[]string{"-ablation", "engine", "-rows", "homer12,nosuchrow", "-q"}, "nosuchrow"},
		{[]string{"-table", "1", "-ablation", "sched", "-rows", "homer12", "-q"}, "sched replays its own workload"},
		{[]string{"-table", "1", "-ablation", "nosuchentry", "-rows", "homer12", "-q"}, "nosuchentry"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stdout %q, stderr %q", c.args, stdout.String(), stderr.String())
		}
	}
}
