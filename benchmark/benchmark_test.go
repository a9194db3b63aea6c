package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {6000, 99}, {1000, 99}, {999, 95}, {760, 95}, {200, 95}, {199, 90}, {100, 90},
		{60, 75}, {40, 75}, {39, 50}, {12, 50}, {1, 50},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if beyond := c.n - rankOf(got, c.n); got != 50 && beyond < minBeyond {
			t.Errorf("p%g of %d samples leaves only %d beyond", got, c.n, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {75, 4}, {100, 5}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

// Timings are summarised by lower quartiles, a mixed class request by request.
func TestLowerQuartileAndClassQuartile(t *testing.T) {
	if got := lowerQuartile([]float64{40, 10, 30, 20}); got != 10 {
		t.Errorf("lowerQuartile of 4 = %g, want the smallest", got)
	}
	if got := lowerQuartile([]float64{8, 7, 6, 5, 4, 3, 2, 1}); got != 2 {
		t.Errorf("lowerQuartile of 8 = %g, want the second smallest", got)
	}
	// A dear request repeated once weighs as much as a cheap one repeated often.
	class := map[string][]float64{
		"cheap": {1, 1, 1, 9, 9, 9, 9, 9},
		"dear":  {1000},
	}
	if got := classQuartile(class); got != 500.5 {
		t.Errorf("classQuartile = %g, want 500.5", got)
	}
	if classQuartile(nil) != 0 {
		t.Error("an empty class must read 0")
	}
}

// The calibration is fixed work: the same result every time, whoever runs it.
func TestCalibrationSliceIsFixedWork(t *testing.T) {
	_, want := calSlice()
	cal := newCalibration()
	cal.pause()
	if n := len(cal.samples()); n != numClients*slicesPerPause {
		t.Errorf("a pause took %d samples, want %d", n, numClients*slicesPerPause)
	}
	for client, sum := range cal.sums {
		if sum != slicesPerPause*want {
			t.Errorf("client %d computed %d over %d slices, want %d each", client, sum, slicesPerPause, want)
		}
	}
	if cal.speed() <= 0 {
		t.Error("machine speed must be positive")
	}
}

// Within a round the clients share one list: every op is sent exactly once.
func TestShareOpsSendsEveryOpOncePerRound(t *testing.T) {
	ops := make([]op, 7)
	for i := range ops {
		ops[i].key = string(rune('a' + i))
	}
	var mu sync.Mutex
	sent := map[string]int{}
	step := shareOps(ops, func(_ *recorder, o *op) {
		mu.Lock()
		sent[o.key]++
		mu.Unlock()
	})
	for round := 0; round < 3; round++ {
		eachClient(func(client int) { step(round, client, nil) })
	}
	for _, o := range ops {
		if sent[o.key] != 3 {
			t.Errorf("op %s sent %d times in 3 rounds", o.key, sent[o.key])
		}
	}
}

// The acceptance driver computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 2, 38, 23, 38, 23, 21})
	if q1 != 10 || q3 != 38 {
		t.Errorf("quartiles = %g, %g; Python gives 10, 38", q1, q3)
	}
	if s := spread([]float64{100, 102, 98, 101, 99}); math.Abs(s-0.03) > 1e-12 {
		t.Errorf("spread = %g, want 0.03", s)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "vadasad.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mdb.ReadCSV", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "anon.RunContext", Start: 30, End: 70}, // overlaps span 2 by 10
		{ID: 4, Parent: 3, Name: "risk.eval", Start: 35, End: 55},
		{ID: 5, Parent: 1, Name: "replica.ship", Start: 90, End: 120}, // outlives its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 100 - 60 - 10, // children cover [10,70] and [90,100]
		2: 30,
		3: 40 - 20,
		4: 20,
		5: 30,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if layerOf("mdb.ReadCSV") != "mdb" || layerOf("anon.Decision.String") != "anon" {
		t.Error("layerOf must cut at the first dot")
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.request("vadasad.assess")
	child := root.begin("mdb.ReadCSV")
	child.end()
	root.record("risk.eval", time.Now(), 5*time.Millisecond)
	root.end()
	other := tr.request("vadasad.assess")
	other.end()
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(tr.spans))
	}
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[1].Req != tr.spans[0].Req {
		t.Error("child span does not point at its parent and request")
	}
	if tr.spans[3].Req == tr.spans[0].Req {
		t.Error("two requests share an identifier")
	}
	if d := tr.spans[2].duration(); d != 5*time.Millisecond {
		t.Errorf("recorded span lasts %s, want 5ms", d)
	}
	if per, n := tr.layerSelf("vadasad.assess"); n != 2 || per["risk"] != 5*time.Millisecond/2 {
		t.Errorf("layerSelf = %v over %d requests", per, n)
	}
}

func TestClassify(t *testing.T) {
	lower := specMetric{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "rows_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		m      specMetric
		parent []float64
		change []float64
		want   verdict
	}{
		{"slower by more than the bound", lower, steady, []float64{120, 121, 119, 120, 122}, regression},
		{"faster by more than the bound", lower, steady, []float64{80, 81, 79, 80, 82}, improvement},
		{"inside the bound", lower, steady, []float64{105, 104, 106, 105, 103}, withinBound},
		{"throughput fell", higher, steady, []float64{80, 81, 79, 80, 82}, regression},
		{"throughput rose", higher, steady, []float64{120, 121, 119, 120, 122}, improvement},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 115}, []float64{85, 104, 118, 95, 110}, unresolved},
		{"shift smaller than the noise", lower, []float64{80, 100, 120, 90, 115}, []float64{95, 115, 135, 105, 130}, unresolved},
		{"shift beyond bound and noise", lower, []float64{80, 100, 120, 90, 115}, []float64{180, 200, 220, 190, 215}, regression},
	} {
		if got, _ := classify(c.parent, c.change, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	abs := specMetric{Name: "fail_share", Better: "lower", Bound: 0}
	if got, _ := classify([]float64{0, 0, 0}, []float64{0, 0.01, 0.01}, abs); got != regression {
		t.Errorf("any new failure must be a regression, got %s", got)
	}
	if got, _ := classify([]float64{0, 0, 0}, []float64{0, 0, 0}, abs); got != withinBound {
		t.Errorf("no failures on either side: %s", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may contain spaces and parentheses.
	line := "4242 (vada sad) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 123 45 0 0 20 0 8 0 100 1000 200"
	ticks, err := parseStatTicks(line)
	if err != nil || ticks != 168 {
		t.Errorf("parseStatTicks = %d, %v; want 168", ticks, err)
	}
	if _, err := parseStatTicks("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
	status := "Name:\tvadasad\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n"
	if hwm, rss := parseStatusMB(status, "VmHWM:"), parseStatusMB(status, "VmRSS:"); hwm != 200 || rss != 100 {
		t.Errorf("parseStatusMB = %g, %g; want 200, 100", hwm, rss)
	}
}

// The same seed must give byte-identical request schedules, a different seed
// different ones: the daemon sees nothing of the seed but these bytes.
func TestSameSeedSameScheduleDigest(t *testing.T) {
	e := &env{sc: smokeScale, refs: &refCache{}}
	for _, w := range workloads {
		a, err := w.plan(e, 7, 10)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.plan(e, 7, 10)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		c, err := w.plan(e, 8, 10)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: seed 7 gave schedules %.12s and %.12s", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
	// The replicated workload's schedule is stream_loop's, byte for byte.
	a, _ := streamLoop.plan(e, 7, 10)
	b, _ := streamSyncRepl.plan(e, 7, 10)
	if a.digest != b.digest {
		t.Error("stream_sync_repl does not replay stream_loop's schedule")
	}
}

// TestSmoke runs all five workloads at smoke scale against spawned daemons —
// kill and restart, failover by promotion, every output check — and one
// traced run. It measures nothing; it proves the harness end to end.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAllDaemons)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range workloads {
		res, err := runWorkload(ctx, e, w, 3, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %s", w.name, res.Failed, res.Attempted, res.FirstError)
		}
		line, err := contractLine(res, sp.EndToEnd)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, m := range sp.EndToEnd {
			if m.Name == "cpu_s_per_krow" {
				continue // a smoke round costs less than one 10 ms tick of /proc CPU time
			}
			if res.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %g; end-to-end metrics are never 0 (%s)", w.name, m.Name, res.Metrics[m.Name].Value, line)
			}
		}
		if w.durable && res.Metrics["wal_bytes_per_row"].Value <= 0 {
			t.Errorf("%s: no durable bytes counted", w.name)
		}
	}
	// One traced run that replays a stream and one that samples a round.
	for _, w := range []*workload{streamSyncRepl, reasonDeclarative} {
		res, err := runTraced(ctx, e, w, 3, 2)
		if err != nil {
			t.Fatalf("traced run of %s: %v", w.name, err)
		}
		if _, err := contractLine(res, sp.PerLayer); err != nil {
			t.Errorf("traced run of %s: %v", w.name, err)
		}
	}
	procs.Lock()
	left := len(procs.live)
	procs.Unlock()
	if left != 0 {
		t.Errorf("%d daemons still running after the runs", left)
	}
}

// A result file is produced by one process running many seeds: references
// must be keyed by what a table contains, not by what it is called.
func TestReferenceCacheIsKeyedByContent(t *testing.T) {
	refs := &refCache{}
	a, err := nativeTables(1, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nativeTables(2, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := refs.anonymized(a[3], kAnon)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := refs.anonymized(b[3], kAnon)
	if err != nil {
		t.Fatal(err)
	}
	if a[3].name != b[3].name || sa == sb {
		t.Error("two seeds' tables of the same name share a reference")
	}
	again, _ := nativeTables(1, smokeScale)
	if s, _ := refs.anonymized(again[3], kAnon); s != sa || len(refs.sums) != 2 {
		t.Error("a regenerated identical table missed the cache")
	}
}
