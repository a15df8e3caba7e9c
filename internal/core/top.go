package core

import (
	"fmt"
	"strings"
)

// This file renders the `gridsat top` dashboard: a fixed-width terminal
// frame summarizing a running cluster from the master's ClusterState (its
// /status payload). Rendering is a pure function of that value, so one
// frame is exactly reproducible from canned inputs — the golden test locks
// the layout, and the subcommand just polls and reprints.

// TopWidth is the default dashboard frame width in columns.
const TopWidth = 80

// topSparkWide and topSparkCell are the sparkline widths of the header
// trend line and the per-client column.
const (
	topSparkWide = 24
	topSparkCell = 10
)

// RenderTop renders one dashboard frame from a ClusterState. Every line is
// padded or truncated to exactly width runes (minimum 40), so a refreshing
// terminal fully overwrites the previous frame without clearing artifacts.
// hist, the master's GET /history samples oldest first, optionally adds
// sparklines — a cluster coverage and conflict-rate trend line under the
// counters and a per-client conflict-rate column; nil renders the
// history-free frame.
func RenderTop(st ClusterState, hist []Sample, width int) string {
	if width < 40 {
		width = 40
	}
	var b strings.Builder

	verdict := st.Verdict
	if verdict == "" {
		verdict = "running"
	}
	head := fmt.Sprintf("GridSAT %s  wall %s", verdict, fmtSeconds(st.WallSeconds))
	barRoom := width - len(head) - 12 // "  [" + bar + "] " + percent
	if barRoom > 8 {
		head += fmt.Sprintf("  [%s] %5.1f%%", progressBar(st.Coverage, barRoom), st.Coverage*100)
	}
	writeLine(&b, head, width)

	writeLine(&b, fmt.Sprintf(
		"closed %s subproblems  max depth %d  rate %s/s  ETA %s",
		fmtCount(st.ClosedSubproblems), st.MaxClosedDepth,
		fmtPercent(st.RatePerSec), fmtETA(st.ETASeconds)), width)

	writeLine(&b, fmt.Sprintf(
		"clients %d registered, %d busy  outstanding %d  backlog %d  splits %d  shared %s",
		st.Registered, st.Busy, st.Outstanding, st.Backlog, st.Splits,
		fmtCount(int64(st.Shared))), width)

	e := st.Efficacy
	writeLine(&b, fmt.Sprintf(
		"conflicts %s  implications %s  imported %s  useful %.1f%%  impl-share %.1f%%",
		fmtCount(st.Conflicts), fmtCount(st.Implications), fmtCount(e.Imported),
		e.UsefulRatio*100, e.ImplicationShare*100), width)

	var coverage, rate []float64
	clientRate := map[int][]float64{}
	for _, s := range hist {
		coverage = append(coverage, s.Coverage)
		rate = append(rate, s.ConflictRate)
		for _, c := range s.Clients {
			clientRate[c.ID] = append(clientRate[c.ID], c.ConflictsPerSec)
		}
	}
	if len(hist) > 0 {
		writeLine(&b, fmt.Sprintf("trend  cov [%s]  conf/s [%s]",
			spark(coverage, topSparkWide), spark(rate, topSparkWide)), width)
	}

	// The per-job rows. A state whose only row is job 0 is a one-shot run's,
	// and the frame omits the table: the header line already tells that
	// whole story.
	if len(st.Jobs) > 0 && !(len(st.Jobs) == 1 && st.Jobs[0].ID == 0) {
		writeLine(&b, "", width)
		writeLine(&b, fmt.Sprintf("%4s  %-10s  %-9s  %3s  %4s  %6s  %8s  %-9s",
			"JOB", "NAME", "STATE", "PRI", "CLI", "COV", "CONF/S", "VERDICT"), width)
		for _, j := range st.Jobs {
			verdict := j.Verdict
			if verdict == "" {
				verdict = "-"
			}
			writeLine(&b, fmt.Sprintf("%4d  %-10.10s  %-9.9s  %3d  %4d  %5.1f%%  %8.1f  %-9.9s",
				j.ID, j.Name, j.State, j.Priority, j.Clients,
				j.Coverage*100, j.ConflictRate, verdict), width)
		}
	}

	clientSparks := len(clientRate) > 0
	writeLine(&b, "", width)
	head2 := fmt.Sprintf("%4s  %-5s  %5s  %9s  %5s  %7s  %8s  %8s",
		"ID", "STATE", "DEPTH", "CONF/S", "UTIL", "IMP-USE", "MEM", "LEARNTS")
	if clientSparks {
		head2 += "  HISTORY"
	}
	writeLine(&b, head2, width)

	for _, c := range st.Clients {
		state := "idle"
		switch {
		case c.Straggler:
			state = "SLOW"
		case c.Busy:
			state = "busy"
		}
		row := fmt.Sprintf("%4d  %-5s  %5d  %9.1f  %4.0f%%  %6.1f%%  %8s  %8d",
			c.ID, state, c.Depth, c.ConflictsPerSec, c.Utilization*100,
			c.ImportUseRatio*100, fmtBytes(c.MemBytes), c.DBLearnts)
		if clientSparks {
			row += "  " + spark(clientRate[c.ID], topSparkCell)
		}
		writeLine(&b, row, width)
		// Portfolio clients get one indented sub-row per in-host worker,
		// with its diversification tag and point-in-time gauges. MEM and
		// LEARNTS stay aligned with the parent columns.
		for _, w := range c.Workers {
			writeLine(&b, fmt.Sprintf("      w%-2d %-14.14s  conf %-7s rst %-4s%8s  %8d",
				w.Worker, workerTag(w.Profile), fmtCount(w.Conflicts),
				fmtCount(w.Restarts), fmtBytes(w.MemBytes), w.Learnts), width)
		}
	}
	return b.String()
}

// workerTag compresses a diversification Profile.String() into a short
// dashboard tag: the pathfinder keeps its name, diversified workers show
// their phase and restart schedule ("rand+luby").
func workerTag(profile string) string {
	if strings.Contains(profile, "pathfinder") {
		return "pathfinder"
	}
	phase, restart := "?", "?"
	for _, f := range strings.Fields(profile) {
		switch {
		case strings.HasPrefix(f, "phase="):
			phase = strings.TrimPrefix(f, "phase=")
		case strings.HasPrefix(f, "restart="):
			restart = strings.TrimPrefix(f, "restart=")
			if i := strings.IndexByte(restart, '/'); i >= 0 {
				restart = restart[:i]
			}
		}
	}
	return phase + "+" + restart
}

// sparkRamp is deliberately ASCII: gridsat top frames are fixed-width
// in *bytes*, so multi-byte block glyphs would break the layout.
const sparkRamp = " .:-=+*#"

// spark renders vals as a fixed-width ASCII sparkline, newest at the
// right. Fewer values than width left-pads with spaces; a flat series
// renders at the lowest ink so stalls are visually obvious.
func spark(vals []float64, width int) string {
	if width <= 0 {
		return ""
	}
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := 0.0, 0.0
	for i, v := range vals {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	out := make([]byte, width)
	for i := range out {
		out[i] = ' '
	}
	for i, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRamp)-1))
			if idx >= len(sparkRamp) {
				idx = len(sparkRamp) - 1
			}
		}
		out[width-len(vals)+i] = sparkRamp[idx]
	}
	return string(out)
}

// writeLine appends s padded/truncated to exactly width columns plus '\n'.
func writeLine(b *strings.Builder, s string, width int) {
	if len(s) > width {
		s = s[:width]
	}
	b.WriteString(s)
	for i := len(s); i < width; i++ {
		b.WriteByte(' ')
	}
	b.WriteByte('\n')
}

// progressBar renders a [0,1] fraction as a bar of exactly n cells.
func progressBar(frac float64, n int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	filled := int(frac * float64(n))
	return strings.Repeat("=", filled) + strings.Repeat("-", n-filled)
}

// fmtCount renders a counter with SI suffixes (1234 -> "1.2k").
func fmtCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// fmtBytes renders a byte count with IEC suffixes.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// fmtSeconds renders elapsed seconds compactly (90.5 -> "1m30s").
func fmtSeconds(s float64) string {
	if s < 0 {
		s = 0
	}
	sec := int64(s)
	switch {
	case sec >= 3600:
		return fmt.Sprintf("%dh%02dm", sec/3600, sec%3600/60)
	case sec >= 60:
		return fmt.Sprintf("%dm%02ds", sec/60, sec%60)
	}
	return fmt.Sprintf("%.1fs", s)
}

// fmtPercent renders a [0,1] rate as a percentage with sensible precision
// for very slow coverage rates.
func fmtPercent(frac float64) string {
	pct := frac * 100
	if pct != 0 && pct < 0.01 {
		return fmt.Sprintf("%.1e%%", pct)
	}
	return fmt.Sprintf("%.2f%%", pct)
}

// fmtETA renders the ClusterState eta_seconds convention: -1 unknown,
// 0 exhausted.
func fmtETA(s float64) string {
	switch {
	case s < 0:
		return "--"
	case s == 0:
		return "done"
	}
	return fmtSeconds(s)
}
