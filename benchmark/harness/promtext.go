package harness

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Metrics is one /metrics scrape: series name with its label set, exactly
// as exposed (`gridsat_comm_msgs_total{dir="send",kind="solved"}`), to
// value.
type Metrics map[string]float64

// ParseMetrics reads the Prometheus text exposition format. Comment lines
// and lines it cannot read are skipped: the harness only ever looks up
// series by name.
func ParseMetrics(r io.Reader) Metrics {
	m := Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[strings.TrimSpace(line[:i])] = v
	}
	return m
}

// Delta returns after-before for every series of after (a series absent
// from before counts from 0).
func Delta(before, after Metrics) Metrics {
	d := Metrics{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// Sum adds every series whose name (the part before '{') is family and
// whose label set contains all of the given `key="value"` fragments.
func (m Metrics) Sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range m {
		name, rest, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}
