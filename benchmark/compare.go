package main

import (
	"fmt"
	"io"
	"sort"
)

// verdict classifies one workload × metric pairing of a comparison.
type verdict string

const (
	regression  verdict = "REGRESSION"
	improvement verdict = "improvement"
	withinBound verdict = "within bound"
	unresolved  verdict = "unresolved"
)

// extraBounds are the end-to-end metrics a result file carries beyond the
// ones BENCHMARK.json can list (those must exist, and be non-zero, on every
// workload): the durable workloads' bytes per row, which repeats exactly, and
// the failure share, for which any increase is a regression.
var extraBounds = []specMetric{
	{Name: "wal_bytes_per_row", Unit: "B", Better: "lower", Bound: 0.01},
	{Name: "fail_share", Unit: "1", Better: "lower", Bound: 0},
}

// classify compares a metric's values over the parent's runs and the
// change's. worse is the change of the median as a share of the parent's
// median, positive when it got worse. A difference only counts when it
// exceeds both the bound and the wider of the two run-to-run spreads; a
// metric whose spread is wider than its bound cannot be called unchanged.
func classify(parent, change []float64, m specMetric) (v verdict, worse float64) {
	mp, mc := median(parent), median(change)
	if m.Bound == 0 { // absolute: no increase at all
		if mc > mp {
			return regression, mc - mp
		}
		return withinBound, mc - mp
	}
	if mp == 0 {
		return unresolved, 0
	}
	worse = (mc - mp) / mp
	if m.Better == "higher" {
		worse = -worse
	}
	noise := max(spread(parent), spread(change))
	switch {
	case worse > m.Bound && worse > noise:
		return regression, worse
	case -worse > m.Bound && -worse > noise:
		return improvement, worse
	case noise > m.Bound:
		return unresolved, worse
	}
	return withinBound, worse
}

// series groups a result file's untraced runs as workload → metric → values.
func series(rf *resultFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func comparedMetrics(sp *spec) []specMetric {
	return append(append([]specMetric(nil), sp.EndToEnd...), extraBounds...)
}

// compareFiles prints, per workload × end-to-end metric, the parent's and
// the change's median and quartiles and the verdict; it returns 1 when any
// pairing regressed.
func compareFiles(w io.Writer, sp *spec, parentPath, changePath string) int {
	parent, err := readResultFile(parentPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	change, err := readResultFile(changePath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	fmt.Fprintf(w, "parent %s (%s, %s)\nchange %s (%s, %s)\n",
		parentPath, parent.Machine.Commit, parent.Machine.CPU, changePath, change.Machine.Commit, change.Machine.CPU)
	ps, cs := series(parent), series(change)
	counts := map[verdict]int{}
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n  %-20s %12s %25s %12s %25s %8s  %s\n", wl.name,
			"metric", "parent", "[q1, q3]", "change", "[q1, q3]", "worse", "verdict")
		for _, m := range comparedMetrics(sp) {
			pv, cv := ps[wl.name][m.Name], cs[wl.name][m.Name]
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v, worse := classify(pv, cv, m)
			counts[v]++
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(w, "  %-20s %12.4f [%11.4f,%11.4f] %12.4f [%11.4f,%11.4f] %+7.1f%%  %s (bound %.0f%%, n=%d/%d)\n",
				m.Name, median(pv), pq1, pq3, median(cv), cq1, cq3, worse*100, v, m.Bound*100, len(pv), len(cv))
		}
	}
	fmt.Fprintf(w, "\n%d regression(s), %d improvement(s), %d within bound, %d unresolved\n",
		counts[regression], counts[improvement], counts[withinBound], counts[unresolved])
	if counts[regression] > 0 {
		return 1
	}
	return 0
}

// summarize prints a result file's medians, quartiles and run-to-run spread
// per workload × metric: run on one commit, this is the A/A noise floor.
func summarize(w io.Writer, sp *spec, rf *resultFile) {
	bounds := map[string]float64{}
	for _, m := range comparedMetrics(sp) {
		bounds[m.Name] = m.Bound
	}
	all := series(rf)
	for _, wl := range workloads {
		metrics := all[wl.name]
		if len(metrics) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-34s %14s %14s %14s %8s\n", wl.name, "metric", "median", "q1", "q3", "spread")
		names := make([]string, 0, len(metrics))
		for name := range metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := metrics[name]
			q1, q3 := quartiles(v)
			note := ""
			if b, ok := bounds[name]; ok && b > 0 {
				note = fmt.Sprintf("  bound %.0f%%", b*100)
				if spread(v) > b {
					note += "  SPREAD EXCEEDS BOUND"
				}
			}
			fmt.Fprintf(w, "  %-34s %14.4f %14.4f %14.4f %7.1f%%%s\n", name, median(v), q1, q3, spread(v)*100, note)
		}
	}
}
