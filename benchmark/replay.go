package main

// In-process replays. Each mirrors the sequence of layer calls the matching
// vadasad handler makes for the same request, with a span around every call
// into a layer, so a request's time can be charged to packages without
// touching the daemon. End-to-end numbers never come from here.

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vadasa"
	"vadasa/internal/anon"
	"vadasa/internal/datalog"
	"vadasa/internal/datalog/lint"
	"vadasa/internal/jobs"
	"vadasa/internal/mdb"
	"vadasa/internal/programs"
	"vadasa/internal/replica"
	"vadasa/internal/stream"
)

// buildDatasetTraced mirrors cmd/vadasad buildDataset for a request whose
// schema is fully spelled out in the query: header clean-up, categorization
// of the (empty) remainder, CSV decode.
func buildDatasetTraced(sc scope, f *vadasa.Framework, t *table) (*mdb.Dataset, error) {
	b := sc.begin("vadasad.build_dataset")
	defer b.end()
	header, rest, _ := strings.Cut(string(t.csv), "\n")
	names := strings.Split(strings.TrimRight(header, "\r"), ",")
	if err := b.call("categorize.Register", func() error {
		_, err := f.Register(vadasa.NewDataset("request", nil))
		return err
	}); err != nil {
		return nil, err
	}
	cleaned := strings.Join(names, ",") + "\n" + rest
	var d *mdb.Dataset
	err := b.call("mdb.ReadCSV", func() (err error) {
		d, err = vadasa.ReadCSV(strings.NewReader(cleaned), "request", t.data.Attrs)
		return err
	})
	return d, err
}

// encodeTraced mirrors writeJSON: the response encoded with HTML escaping off.
func encodeTraced(sc scope, v any) error {
	return sc.call("vadasad.json_encode", func() error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		return enc.Encode(v)
	})
}

// replayAssess mirrors handleAssess.
func replayAssess(ctx context.Context, tr *tracer, o *op) error {
	root := tr.request("vadasad.assess")
	defer root.end()
	f := vadasa.New()
	d, err := buildDatasetTraced(root, f, o.t)
	if err != nil {
		return err
	}
	var risks []float64
	if err := root.call("risk.AssessContext", func() (err error) {
		risks, err = f.AssessRiskContext(ctx, d, nativeMeasure(o.m))
		return err
	}); err != nil {
		return err
	}
	var summary vadasa.RiskSummary
	var risky []int
	_ = root.call("risk.Summarize", func() error {
		summary = vadasa.SummarizeRisks(risks, 0.5)
		for i, r := range risks {
			if r > 0.5 {
				risky = append(risky, d.Rows[i].ID)
			}
		}
		return nil
	})
	return encodeTraced(root, struct {
		Tuples  int                `json:"tuples"`
		Summary vadasa.RiskSummary `json:"summary"`
		Risky   []int              `json:"riskyTupleIds"`
	}{len(d.Rows), summary, risky})
}

// tracedCycle runs the anonymization cycle under a span, splitting every
// committed iteration into its risk evaluation and its anonymization steps
// from the durations the cycle reports through the public Checkpoint hook.
func tracedCycle(sc scope, name string, run func(cyc scope, cp anon.CheckpointFunc) (*anon.Result, error)) (*anon.Result, error) {
	cyc := sc.begin(name)
	defer cyc.end()
	return run(cyc, func(cp anon.Checkpoint) error {
		end := time.Now()
		start := end.Add(-(cp.RiskEval + cp.Anon))
		cyc.record("risk.iteration_eval", start, cp.RiskEval)
		cyc.record("anon.iteration_steps", start.Add(cp.RiskEval), cp.Anon)
		sc.t.count("anon.iterations", 1)
		sc.t.count("anon.decisions", int64(len(cp.Decisions)))
		return nil
	})
}

// replayAnonymize mirrors handleAnonymize.
func replayAnonymize(ctx context.Context, tr *tracer, o *op) error {
	root := tr.request("vadasad.anonymize")
	defer root.end()
	f := vadasa.New()
	d, err := buildDatasetTraced(root, f, o.t)
	if err != nil {
		return err
	}
	res, err := tracedCycle(root, "anon.RunContext", func(_ scope, cp anon.CheckpointFunc) (*anon.Result, error) {
		return f.AnonymizeContext(ctx, d, vadasa.CycleOptions{Measure: nativeMeasure(o.m), Threshold: o.m.threshold, Checkpoint: cp})
	})
	if err != nil {
		return err
	}
	var csvBuf bytes.Buffer
	if err := root.call("mdb.WriteCSV", func() error { return vadasa.WriteCSV(&csvBuf, res.Dataset) }); err != nil {
		return err
	}
	var decisions []string
	_ = root.call("anon.Decision.String", func() error {
		for _, dec := range res.Decisions {
			decisions = append(decisions, dec.String())
		}
		return nil
	})
	if err := root.call("utility.Compare", func() error { _, err := vadasa.CompareUtility(d, res.Dataset); return err }); err != nil {
		return err
	}
	return encodeTraced(root, struct {
		CSV       string   `json:"csv"`
		Decisions []string `json:"decisions"`
	}{csvBuf.String(), decisions})
}

// replayReason mirrors handleReason: decode the JSON body, lint, parse, load
// the facts, evaluate, materialise the queried predicate, encode.
func replayReason(ctx context.Context, tr *tracer, o *op) error {
	root := tr.request("vadasad.reason")
	defer root.end()
	var req struct {
		Program string             `json:"program"`
		Facts   map[string][][]any `json:"facts"`
		Query   []string           `json:"query"`
	}
	if err := root.call("vadasad.json_decode", func() error { return json.Unmarshal(o.body, &req) }); err != nil {
		return err
	}
	if err := root.call("datalog.lint", func() error {
		if diags := lint.Source("program", req.Program, &lint.Options{Inputs: []string{"tuple"}, Outputs: req.Query}); lint.HasErrors(diags) {
			return fmt.Errorf("library program rejected by the linter")
		}
		return nil
	}); err != nil {
		return err
	}
	var prog *datalog.Program
	if err := root.call("datalog.Parse", func() (err error) { prog, err = vadasa.ParseProgram(req.Program); return err }); err != nil {
		return err
	}
	edb := vadasa.NewFactDB()
	_ = root.call("datalog.load", func() error {
		for pred, rows := range req.Facts {
			for _, row := range rows {
				args := make([]vadasa.Val, len(row))
				for i, cell := range row {
					switch v := cell.(type) {
					case string:
						args[i] = vadasa.StrVal(v)
					case float64:
						args[i] = vadasa.NumVal(v)
					}
				}
				edb.Add(pred, args...)
			}
		}
		return nil
	})
	var res *datalog.Result
	if err := root.call("datalog.RunContext", func() (err error) {
		res, err = vadasa.ReasonContext(ctx, prog, edb, &vadasa.ReasoningOptions{})
		return err
	}); err != nil {
		return err
	}
	tr.count("datalog.match_attempts", res.Stats.MatchAttempts)
	tr.count("datalog.derived_facts", int64(res.Stats.DerivedFacts))
	facts := map[string][][]any{}
	_ = root.call("datalog.Facts", func() error {
		for _, pred := range req.Query {
			rows := res.Facts(pred)
			out := make([][]any, len(rows))
			for i, row := range rows {
				vals := make([]any, len(row))
				for j, v := range row {
					if v.Kind() == datalog.KNum {
						vals[j] = v.NumVal()
					} else {
						vals[j] = v.StrVal()
					}
				}
				out[i] = vals
			}
			facts[pred] = out
		}
		return nil
	})
	return encodeTraced(root, struct {
		Facts map[string][][]any    `json:"facts"`
		Stats vadasa.ReasoningStats `json:"stats"`
	}{facts, res.Stats})
}

// replayExplain mirrors handleExplain and, below it, Framework.ExplainRisk:
// build the program for the schema, encode the table as facts, evaluate,
// find the tuple's riskout fact, render its derivation tree.
func replayExplain(ctx context.Context, tr *tracer, o *op) error {
	root := tr.request("vadasad.explain")
	defer root.end()
	d, err := buildDatasetTraced(root, vadasa.New(), o.t)
	if err != nil {
		return err
	}
	var prog *datalog.Program
	_ = root.call("programs.build", func() error { prog = declProgram(o.m); return nil })
	edb := datalog.NewDatabase()
	_ = root.call("programs.TupleFacts", func() error { programs.TupleFacts(edb, d); return nil })
	var res *datalog.Result
	if err := root.call("datalog.RunContext", func() (err error) { res, err = datalog.RunContext(ctx, prog, edb, nil); return err }); err != nil {
		return err
	}
	var fact datalog.Tuple
	_ = root.call("datalog.Facts", func() error {
		for _, f := range res.Facts("riskout") {
			if int(f[0].NumVal()) == o.tuple {
				fact = f
				break
			}
		}
		return nil
	})
	if fact == nil {
		return fmt.Errorf("no risk derived for the explained tuple")
	}
	var ex string
	if err := root.call("datalog.Explain", func() (err error) { ex, err = res.Explain("riskout", fact...); return err }); err != nil {
		return err
	}
	return encodeTraced(root, map[string]string{"explanation": ex})
}

// replayOp dispatches a request/response op to its replay.
func replayOp(ctx context.Context, tr *tracer, o *op) error {
	switch o.kind {
	case "assess":
		return replayAssess(ctx, tr, o)
	case "anonymize":
		return replayAnonymize(ctx, tr, o)
	case "reason":
		return replayReason(ctx, tr, o)
	case "explain":
		return replayExplain(ctx, tr, o)
	}
	return fmt.Errorf("no in-process replay for %q", o.kind)
}

// current is the span asynchronous work is charged to: a replication
// shipment or a job worker runs on its own goroutine while the request that
// caused it waits, so it records under whatever the replay has open.
type current struct{ v atomic.Pointer[scope] }

func (c *current) set(s scope) { c.v.Store(&s) }
func (c *current) get() scope  { return *c.v.Load() }

// tracedTransport delivers shipments straight into a Standby in-process,
// under a span: the in-process stand-in for the HTTP hop of -repl-peers.
type tracedTransport struct {
	sb  *replica.Standby
	cur *current
}

func (l *tracedTransport) Ship(ctx context.Context, req *replica.ShipRequest) (resp *replica.ShipResponse, err error) {
	err = l.cur.get().call("replica.HandleShip", func() (err error) { resp, err = l.sb.HandleShip(ctx, req); return err })
	return resp, err
}
func (l *tracedTransport) Addr() string { return "in-process" }
func (l *tracedTransport) Close() error { return nil }

// streamReplay is what a stream replay leaves behind for the per-layer
// metrics that are not span durations.
type streamReplay struct {
	rows      int   // rows appended
	walBytes  int64 // journal bytes on disk, mirrors included
	fullMode  bool  // the stream degraded to periodic full reassessment
	shipped   int64
	shipFails int
	lagMax    int
	walPath   string // primary-side journal
}

// replayStream runs a stream's schedule in-process the way the handlers
// drive internal/stream: Open, then per cycle Append×n → Release → Ack →
// Withdraw, leaving the last release unacked, then reopening the journal —
// the restart. With repl set the stream ships synchronously to an in-process
// standby and the reopen is a promotion of the mirror instead.
func replayStream(ctx context.Context, tr *tracer, dir string, s *streamPlan, repl bool) (*streamReplay, error) {
	out := &streamReplay{}
	cur := &current{}
	opts := stream.Options{
		Assessor:  nativeMeasure(s.measure),
		Threshold: s.measure.threshold,
		Semantics: mdb.MaybeMatch,
		Attrs:     s.attrs,
		Meta:      json.RawMessage(`{}`),
	}
	primaryDir := filepath.Join(dir, "primary")
	mirrorDir := filepath.Join(dir, "standby")
	for _, d := range []string{primaryDir, mirrorDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(primaryDir, s.id+".wal")
	out.walPath = path

	var (
		primary *replica.Primary
		standby *replica.Standby
	)
	if repl {
		node, err := replica.OpenNode("primary", filepath.Join(primaryDir, replica.NodeJournalName), replica.RolePrimary, nil)
		if err != nil {
			return nil, err
		}
		defer node.Close()
		sbNode, err := replica.OpenNode("standby", filepath.Join(dir, "standby-"+replica.NodeJournalName), replica.RoleStandby, nil)
		if err != nil {
			return nil, err
		}
		defer sbNode.Close()
		followOpts := opts
		standby, err = replica.NewStandby(replica.StandbyOptions{
			Node:       sbNode,
			Roots:      map[string]replica.Root{"stream": {Dir: mirrorDir, Ext: ".wal"}},
			FollowRoot: "stream",
			OpenFollower: func(ctx context.Context, id, path string) (*stream.Follower, error) {
				return stream.OpenFollower(ctx, id, path, followOpts)
			},
		})
		if err != nil {
			return nil, err
		}
		defer standby.Close()
		primary, err = replica.NewPrimary(replica.PrimaryOptions{
			Node:           node,
			Peers:          []replica.Transport{&tracedTransport{sb: standby, cur: cur}},
			Sync:           true,
			DigestInterval: -1,
		})
		if err != nil {
			return nil, err
		}
		primary.Start()
		defer primary.Close()
		hook := primary.Hook("stream/"+s.id, path)
		opts.FenceCheck = node.FenceCheck
		opts.OnAppend = func(seq int, line []byte) error {
			return cur.get().call("replica.sync_ship", func() error { return hook(seq, line) })
		}
	}

	create := tr.request("vadasad.create_stream")
	cur.set(create)
	var st *stream.Stream
	err := create.call("stream.Open", func() (err error) { st, err = stream.Open(ctx, s.id, path, opts); return err })
	create.end()
	if err != nil {
		return nil, err
	}
	if primary != nil {
		primary.Register("stream/"+s.id, path, st.JournalSeq(), nil)
	}

	var window []int
	for cyc := 0; cyc < s.cycles; cyc++ {
		for i := 0; i < s.shape.appends; i++ {
			idx := cyc*s.shape.appends + i
			root := tr.request("vadasad.append")
			cur.set(root)
			var rows [][]string
			if err := root.call("stream.parse_csv", func() error {
				recs, err := csv.NewReader(bytes.NewReader(s.batches[idx])).ReadAll()
				if err == nil {
					rows = recs[1:]
				}
				return err
			}); err != nil {
				return nil, err
			}
			var res *stream.AppendResult
			err := root.call("stream.Append", func() (err error) { res, err = st.Append(ctx, "b"+strconv.Itoa(idx), rows); return err })
			if err == nil {
				err = encodeTraced(root, res)
			}
			root.end()
			if err != nil {
				return nil, err
			}
			window = append(window, res.RowIDs...)
			out.rows += len(rows)
			if primary != nil {
				out.lagMax = max(out.lagMax, primary.Lag())
			}
		}

		root := tr.request("vadasad.release")
		cur.set(root)
		var info *stream.ReleaseInfo
		var released []byte
		err := root.call("stream.Release", func() (err error) { info, err = st.Release(ctx); return err })
		if err == nil {
			err = root.call("stream.ReleaseBytes", func() (err error) { released, err = st.ReleaseBytes(info); return err })
		}
		if err == nil {
			err = encodeTraced(root, struct {
				Release *stream.ReleaseInfo `json:"release"`
				CSV     string              `json:"csv"`
			}{info, string(released)})
		}
		root.end()
		if err != nil {
			return nil, err
		}
		if cyc == s.cycles-1 {
			break
		}
		root = tr.request("vadasad.ack")
		cur.set(root)
		err = root.call("stream.Ack", func() error { return st.Ack(ctx, info.Seq) })
		root.end()
		if err != nil {
			return nil, err
		}
		if len(window) > s.shape.window {
			root = tr.request("vadasad.withdraw")
			cur.set(root)
			ids := window[:s.shape.withdraw]
			window = window[s.shape.withdraw:]
			err = root.call("stream.Withdraw", func() error { return st.Withdraw(ctx, ids) })
			root.end()
			if err != nil {
				return nil, err
			}
		}
	}
	out.fullMode = st.Status(ctx).Mode == "full"
	if primary != nil {
		for _, p := range primary.Status().Peers {
			out.shipped += p.Shipped
			out.shipFails += p.Failures
		}
	}

	// The restart. A real one follows a SIGKILL; in-process the journal
	// handle has to be given back first, which costs one checkpoint record.
	root := tr.request("vadasad.recover")
	cur.set(root)
	defer root.end()
	if err := st.Close(ctx); err != nil {
		return nil, err
	}
	reopen := path
	if repl {
		if err := root.call("replica.Promote", func() error { return standby.Promote(ctx, 2) }); err != nil {
			return nil, err
		}
		reopen = filepath.Join(mirrorDir, s.id+".wal")
		opts.FenceCheck, opts.OnAppend = nil, nil
	}
	var again *stream.Stream
	if err := root.call("stream.Open", func() (err error) { again, err = stream.Open(ctx, s.id, reopen, opts); return err }); err != nil {
		return nil, err
	}
	pub := again.Published()
	if pub == nil || pub.Seq != s.cycles {
		return nil, fmt.Errorf("replayed stream %s lost its pending release", s.id)
	}
	if err := again.Close(ctx); err != nil {
		return nil, err
	}
	for _, d := range []string{primaryDir, mirrorDir} {
		wals, _ := filepath.Glob(filepath.Join(d, "*.wal"))
		for _, w := range wals {
			if fi, err := os.Stat(w); err == nil {
				out.walBytes += fi.Size()
			}
		}
	}
	return out, nil
}

// jobsReplay is what a jobs replay leaves behind beside its spans.
type jobsReplay struct {
	journalBytes int64
	iterations   int
	rows         int
	walBytes     int64 // journals plus spooled inputs
}

// replayJobs runs anonymize ops as durable jobs in-process: spool the input,
// submit to a jobs.Manager whose runner mirrors cmd/vadasad's, wait for the
// outcome, read the result; then recover a fresh manager over the finished
// directory — the restart.
func replayJobs(ctx context.Context, tr *tracer, dir string, ops []op) (*jobsReplay, error) {
	out := &jobsReplay{}
	cur := &current{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	specOf := map[string]*op{} // spooled input path → the op it came from
	runner := jobs.RunnerFunc(func(ctx context.Context, id string, spec jobs.Spec, resume []anon.Checkpoint, checkpoint anon.CheckpointFunc) (*jobs.Outcome, error) {
		sc := cur.get().begin("jobs.run")
		defer sc.end()
		o := specOf[spec.Dataset]
		f := vadasa.New()
		var body []byte
		if err := sc.call("jobs.read_input", func() (err error) { body, err = os.ReadFile(spec.Dataset); return err }); err != nil {
			return nil, err
		}
		d, err := buildDatasetTraced(sc, f, &table{csv: body, data: o.t.data})
		if err != nil {
			return nil, err
		}
		res, err := tracedCycle(sc, "anon.ResumeContext", func(cyc scope, cp anon.CheckpointFunc) (*anon.Result, error) {
			return f.ResumeAnonymizeContext(ctx, d, vadasa.CycleOptions{
				Measure: nativeMeasure(o.m), Threshold: o.m.threshold,
				Checkpoint: func(c anon.Checkpoint) error {
					if err := cp(c); err != nil {
						return err
					}
					out.iterations++
					return cyc.call("jobs.checkpoint", func() error { return checkpoint(c) })
				},
			}, resume)
		})
		if err != nil {
			return nil, err
		}
		outPath := filepath.Join(dir, id+".out.csv")
		var sb strings.Builder
		if err := sc.call("mdb.WriteCSV", func() error { return vadasa.WriteCSV(&sb, res.Dataset) }); err != nil {
			return nil, err
		}
		if err := sc.call("jobs.write_output", func() error {
			if err := os.WriteFile(outPath+".tmp", []byte(sb.String()), 0o644); err != nil {
				return err
			}
			return os.Rename(outPath+".tmp", outPath)
		}); err != nil {
			return nil, err
		}
		return &jobs.Outcome{OutputPath: outPath, Iterations: res.Iterations, NullsInjected: res.NullsInjected, Decisions: len(res.Decisions)}, nil
	})
	mgr, err := jobs.NewManager(runner, jobs.Options{Dir: dir, Workers: 2})
	if err != nil {
		return nil, err
	}
	for i := range ops {
		o := &ops[i]
		root := tr.request("vadasad.job")
		cur.set(root)
		var input string
		sub := root.begin("vadasad.job_submit")
		err := sub.call("jobs.spool", func() error {
			f, err := os.CreateTemp(dir, "input-*.csv")
			if err != nil {
				return err
			}
			input = f.Name()
			if _, err := f.Write(o.body); err != nil {
				f.Close()
				return err
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
		if err != nil {
			mgr.Close()
			return nil, err
		}
		specOf[input] = o
		var job jobs.Job
		err = sub.call("jobs.Submit", func() (err error) { job, err = mgr.Submit(jobs.Spec{Dataset: input}); return err })
		sub.end()
		if err != nil {
			mgr.Close()
			return nil, err
		}
		wait := root.begin("vadasad.job_wait")
		cur.set(wait)
		for !job.State.Terminal() {
			time.Sleep(time.Millisecond)
			if job, err = mgr.Get(job.ID); err != nil {
				break
			}
		}
		wait.end()
		if err != nil || job.State != jobs.StateDone {
			mgr.Close()
			return nil, fmt.Errorf("replayed job %s ended %s: %v", o.key, job.State, err)
		}
		err = root.call("jobs.read_result", func() error { _, err := os.ReadFile(job.Outcome.OutputPath); return err })
		root.end()
		if err != nil {
			mgr.Close()
			return nil, err
		}
		out.rows += o.rows
	}
	mgr.Close()

	root := tr.request("vadasad.recover")
	defer root.end()
	again, err := jobs.NewManager(runner, jobs.Options{Dir: dir, Workers: 2})
	if err != nil {
		return nil, err
	}
	defer again.Close()
	if err := root.call("jobs.Recover", func() error { _, err := again.Recover(); return err }); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil || strings.HasSuffix(e.Name(), ".out.csv") {
			continue
		}
		out.walBytes += fi.Size()
		if strings.HasSuffix(e.Name(), ".journal") {
			out.journalBytes += fi.Size()
		}
	}
	return out, nil
}
