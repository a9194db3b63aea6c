package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vadasa/internal/mdb"
	"vadasa/internal/stream"
)

// sampleCycles is the length of the stream schedule a traced run replays:
// long enough to outgrow the window and withdraw twice.
const sampleCycles = 8

// traceLayers are the layers a request's self time is reported for; spans of
// any other package (categorize, utility) are summed under "other".
var traceLayers = []string{"mdb", "risk", "anon", "datalog", "programs", "stream", "replica", "jobs", "vadasad"}

// rootOf maps a latency class to the root span of its in-process replay.
var rootOf = map[string]string{
	"assess": "vadasad.assess", "anonymize": "vadasad.anonymize",
	"reason": "vadasad.reason", "explain": "vadasad.explain",
	"append": "vadasad.append", "release": "vadasad.release",
	"job": "vadasad.job", "submit": "vadasad.job_submit",
}

// sample picks the fixed sample of a request/response round a traced run
// replays: one request in every n of the distinct ones, so every endpoint
// and every table family appears while the run stays short.
func sample(round []op, every int) []op {
	var out []op
	seen := map[string]bool{}
	for _, o := range round {
		if seen[o.key] {
			continue
		}
		seen[o.key] = true
		if (len(seen)-1)%every == 0 {
			out = append(out, o)
		}
	}
	return out
}

// runTraced is one traced run of a workload. It replays a fixed sample of
// the workload's schedule in-process under spans, sends the same sample to a
// real daemon from one client for the like-for-like end-to-end time, and
// runs the standalone layer probes; it reports every per-layer metric.
func runTraced(ctx context.Context, e *env, w *workload, seed int64, seconds int) (*runResult, error) {
	started := time.Now()
	dir, err := os.MkdirTemp(e.tmp, "traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := probeSet{}
	native, big, err := probeTables(seed, e.sc)
	if err != nil {
		return nil, err
	}
	unbalanced := native[1]

	// The three durable layers are measured from the spans of their own
	// replays, whichever workload is being traced; the traced workload's
	// replay goes to the tracer that is written out.
	tr := newTracer()
	tracerFor := func(x *workload) *tracer {
		if x == w {
			return tr
		}
		return newTracer()
	}
	cycles := sampleCycles
	if e.sc.smoke {
		cycles = 5
	}
	sp, err := newStreamPlan("kanon", kAnon, synthSeed(seed, 16), 0, cycles, e.sc)
	if err != nil {
		return nil, err
	}
	streamTr, replTr, jobsTr := tracerFor(streamLoop), tracerFor(streamSyncRepl), tracerFor(jobsDurable)
	sr, err := replayStream(ctx, streamTr, filepath.Join(dir, "stream"), sp, false)
	if err != nil {
		return nil, fmt.Errorf("stream replay: %w", err)
	}
	rr, err := replayStream(ctx, replTr, filepath.Join(dir, "repl"), sp, true)
	if err != nil {
		return nil, fmt.Errorf("replicated stream replay: %w", err)
	}
	jobSample := sample(anonymizeOps(native, "/jobs/anonymize", "job"), 4)
	jr, err := replayJobs(ctx, jobsTr, filepath.Join(dir, "jobs"), jobSample)
	if err != nil {
		return nil, fmt.Errorf("jobs replay: %w", err)
	}
	streamMetrics(p, streamTr, sr)
	replicaMetrics(p, replTr, rr)
	jobsMetrics(p, jobsTr, jr)
	if err := probeFollower(ctx, p, dir, sp.id, sr.walPath, stream.Options{
		Assessor: nativeMeasure(kAnon), Threshold: kAnon.threshold, Semantics: mdb.MaybeMatch, Attrs: sp.attrs,
	}); err != nil {
		return nil, fmt.Errorf("follower probe: %w", err)
	}

	// The traced workload's own sample, in-process and against a daemon.
	bootStart := time.Now()
	c, err := boot(ctx, e, w)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	p.put("vadasad.boot_ms", ms(time.Since(bootStart)), "ms", 1)

	rec := newRecorder()
	checks := map[string]check{}
	var replayed int
	switch w {
	case streamLoop, streamSyncRepl:
		s := *sp
		checks[s.releaseKey()] = s.checkRelease
		if s.drive(ctx, e.client, c.serving.base, rec, s.cycles) && c.standby != nil {
			s.checkMirror(ctx, e.client, c.standby.base, rec)
		}
		replayed = len(sp.batches)
	case jobsDurable:
		for i := range jobSample {
			o := &jobSample[i]
			checks[o.key] = e.refs.checkJobResult(o.t, o.m)
			if out, _, ok := runJob(ctx, e.client, c.serving.base, rec, o); ok {
				rec.keep(o.key, out)
			}
		}
		replayed = len(jobSample)
	default:
		pl, err := w.plan(e, seed, seconds)
		if err != nil {
			return nil, err
		}
		ops := sample(pl.round, 3)
		checks = pl.checks
		for i := range ops {
			if err := replayOp(ctx, tr, &ops[i]); err != nil {
				return nil, fmt.Errorf("replaying %s: %w", ops[i].key, err)
			}
		}
		// Each sampled request is sent three times; the first warms the
		// daemon and is not timed.
		for i := range ops {
			call(ctx, e.client, c.serving.base, &ops[i])
			for r := 0; r < 2; r++ {
				if body, ok := rec.do(ctx, e.client, c.serving.base, &ops[i]); ok {
					rec.keep(ops[i].key, body)
				}
			}
		}
		replayed = len(ops)
	}
	if rec.failed > 0 {
		return nil, fmt.Errorf("traced run's daemon sample failed: %w", rec.firstErr)
	}
	checkFailed, checkErr := checkReplies(checks, rec.replies)
	attempted := rec.attempted // the sample's requests, before the /healthz floor below
	healthz := op{kind: "healthz", method: http.MethodGet, path: "/healthz"}
	for i := 0; i < 200; i++ {
		rec.do(ctx, e.client, c.serving.base, &healthz)
	}
	health := rec.class("healthz")
	p.put("vadasad.healthz_p50_us", percentile(health, 50)*1000, "us", len(health))
	p.put("vadasad.shed_429", float64(rec.shed), "count", rec.attempted)

	// Traced against untraced, like for like: the same requests, one client.
	overhead := func(kind string) (inproc, e2e float64) {
		return mean(tr.durations(rootOf[kind])), mean(rec.class(e2eClass(kind)))
	}
	in1, e1 := overhead(w.primary)
	in2, e2 := overhead(w.secondary)
	p.put("vadasad.op_overhead_ms", e1-in1, "ms", len(rec.class(e2eClass(w.primary))))
	p.put("vadasad.op2_overhead_ms", e2-in2, "ms", len(rec.class(e2eClass(w.secondary))))
	p.put("trace.coverage_share", in1/e1, "1", replayed)
	// Where a request's time goes, by layer, for both latency classes: the
	// mean self time per request of every span under that class's root.
	for slot, kind := range map[string]string{"op": w.primary, "op2": w.secondary} {
		self, n := tr.layerSelf(rootOf[kind])
		var other time.Duration
		for layer, d := range self {
			if !slices.Contains(traceLayers, layer) {
				other += d
			}
		}
		for _, l := range traceLayers {
			p.put("self."+slot+"."+l+"_ms", ms(self[l]), "ms", n)
		}
		p.put("self."+slot+".other_ms", ms(other), "ms", n)
	}

	// The standalone probes.
	for _, probe := range []struct {
		name string
		run  func() error
	}{
		{"mdb", func() error { return probeMDB(ctx, p, unbalanced) }},
		{"risk", func() error { return probeRisk(ctx, p, unbalanced, native[3]) }},
		{"anon", func() error { return probeAnon(ctx, p, native) }},
		{"datalog", func() error { return probeDatalog(ctx, p, big) }},
		{"programs", func() error { return probePrograms(ctx, p, big) }},
		{"journal", func() error { return probeJournal(ctx, p, dir, sp.batches[0]) }},
		{"dist", func() error { return probeDist(ctx, p, unbalanced) }},
		{"json", func() error { return probeJSON(p, reasonBody(declProgram(kAnon), big), unbalanced.csv) }},
	} {
		if err := probe.run(); err != nil {
			return nil, fmt.Errorf("%s probe: %w", probe.name, err)
		}
	}

	path := filepath.Join(e.outDir, "trace-"+w.name+".json")
	if err := tr.write(path, w.name, seed); err != nil {
		return nil, err
	}
	fmt.Printf("trace of %s: %d spans written to %s\n", w.name, len(tr.spans), path)
	fmt.Printf("  %s: in-process %.3f ms, daemon %.3f ms per request (same requests, one client)\n", w.primary, in1, e1)
	fmt.Printf("  %s: in-process %.3f ms, daemon %.3f ms per request\n", w.secondary, in2, e2)

	res := &runResult{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: true,
		Attempted: attempted, Failed: checkFailed, PhaseSeconds: time.Since(started).Seconds(),
		Metrics: map[string]metric(p),
	}
	if checkErr != nil {
		res.FirstError = checkErr.Error()
	}
	return res, nil
}

// e2eClass is the latency class the daemon-side sample records for a kind:
// a traced release is compared without its ack.
func e2eClass(kind string) string {
	if kind == "release" {
		return "release_get"
	}
	return kind
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// putSpanP50 reports the median duration of the spans with the given name,
// scaled (1 for ms, 1000 for us).
func putSpanP50(p probeSet, tr *tracer, metric, spanName, unit string, scale float64) {
	d := tr.durations(spanName)
	p.put(metric, percentile(d, 50)*scale, unit, len(d))
}

// streamMetrics derives the stream layer's metrics from a replay's spans.
func streamMetrics(p probeSet, tr *tracer, r *streamReplay) {
	putSpanP50(p, tr, "stream.append_us", "stream.Append", "us", 1000)
	putSpanP50(p, tr, "stream.release_ms", "stream.Release", "ms", 1)
	putSpanP50(p, tr, "stream.ack_us", "stream.Ack", "us", 1000)
	putSpanP50(p, tr, "stream.withdraw_us", "stream.Withdraw", "us", 1000)
	opens := tr.durations("stream.Open")
	replay := opens[len(opens)-1] // the first Open created the stream; the last replayed it
	p.put("stream.open_replay_ms", replay, "ms", 1)
	p.put("stream.replay_rows_per_s", float64(r.rows)/(replay/1000), "1/s", r.rows)
	full := 0.0
	if r.fullMode {
		full = 1
	}
	p.put("stream.full_recomputes", full, "count", 1)
	p.put("stream.wal_bytes_per_row", float64(r.walBytes)/float64(r.rows), "B", r.rows)
}

// replicaMetrics derives the replica layer's metrics from a replicated
// replay: the standby's handling of a shipment, an append through the
// synchronous hook, promotion, and the shipper's own counters.
func replicaMetrics(p probeSet, tr *tracer, r *streamReplay) {
	putSpanP50(p, tr, "replica.ship_us", "replica.HandleShip", "us", 1000)
	putSpanP50(p, tr, "replica.sync_append_us", "stream.Append", "us", 1000)
	putSpanP50(p, tr, "replica.promote_ms", "replica.Promote", "ms", 1)
	p.put("replica.shipped_records", float64(r.shipped), "count", 1)
	p.put("replica.ship_retries", float64(r.shipFails), "count", 1)
	p.put("replica.lag_max", float64(r.lagMax), "count", r.rows)
}

// jobsMetrics derives the jobs layer's metrics from a jobs replay.
func jobsMetrics(p probeSet, tr *tracer, r *jobsReplay) {
	putSpanP50(p, tr, "jobs.submit_ms", "vadasad.job_submit", "ms", 1)
	putSpanP50(p, tr, "jobs.checkpoint_us", "jobs.checkpoint", "us", 1000)
	putSpanP50(p, tr, "jobs.recover_ms", "jobs.Recover", "ms", 1)
	p.put("jobs.journal_bytes_per_iter", float64(r.journalBytes)/float64(max(r.iterations, 1)), "B", r.iterations)
	p.put("jobs.wal_bytes_per_row", float64(r.walBytes)/float64(max(r.rows, 1)), "B", r.rows)
}
