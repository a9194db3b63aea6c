package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"
)

// jobPoll is how often a client asks for its job's state.
const jobPoll = 5 * time.Millisecond

// runJob is one durable anonymization as its caller sees it: submit, poll
// until the job is terminal, fetch the result. It returns the result bytes.
func runJob(ctx context.Context, c *http.Client, base string, rec *recorder, o *op) ([]byte, string, bool) {
	start := time.Now()
	submit := *o
	submit.kind = "submit"
	body, ok := rec.do(ctx, c, base, &submit)
	if !ok {
		return nil, "", false
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		rec.fail(fmt.Errorf("job submission reply carries no id"))
		return nil, "", false
	}
	status := op{kind: "job_status", method: http.MethodGet, path: "/jobs/" + job.ID}
	for job.State != "done" {
		switch job.State {
		case "failed", "cancelled":
			rec.fail(fmt.Errorf("job %s ended %s", o.key, job.State))
			return nil, "", false
		}
		select {
		case <-ctx.Done():
			rec.fail(ctx.Err())
			return nil, "", false
		case <-time.After(jobPoll):
		}
		// Polls are not operations of their own: they are neither counted
		// as attempts nor timed, only their failure is.
		code, b, _, err := call(ctx, c, base, &status)
		if err != nil || code != http.StatusOK {
			rec.fail(fmt.Errorf("polling job %s: HTTP %d: %v", o.key, code, err))
			return nil, "", false
		}
		if err := json.Unmarshal(b, &job); err != nil {
			rec.fail(fmt.Errorf("decoding job status: %w", err))
			return nil, "", false
		}
	}
	result := op{kind: "job_result", method: http.MethodGet, path: "/jobs/" + job.ID + "/result", rows: o.rows}
	out, ok := rec.do(ctx, c, base, &result)
	if !ok {
		return nil, "", false
	}
	rec.observe("job", o.key, time.Since(start))
	return out, job.ID, true
}

var jobsDurable = &workload{
	name: "jobs_durable",
	why: "the anonymize_native cycle work plus input spool and digest, per-iteration checkpoint appends and an output " +
		"file: few large journal records and many small files to scan at start-up, unlike the stream workloads",
	primary:   "job",
	secondary: "submit",
	durable:   true,
	flags: func(dir, _ string) ([]string, []string) {
		return []string{"-job-dir", filepath.Join(dir, "jobs"), "-job-workers", "2"}, nil
	},
	plan: func(e *env, seed int64, seconds int) (*plan, error) {
		tables, err := nativeTables(seed, e.sc)
		if err != nil {
			return nil, err
		}
		p := &plan{tables: tables, checks: map[string]check{}}
		p.round = anonymizeOps(tables, "/jobs/anonymize", "job")
		for _, o := range p.round {
			p.checks[o.key] = e.refs.checkJobResult(o.t, o.m)
		}
		// Warm-up: the small table's requests through the synchronous endpoint.
		// Their replies are kept, so those job results are held against the
		// same daemon's sync replies as well as against the library.
		for _, o := range onTable(p.round, tables[3]) {
			sync := o
			sync.kind, sync.key = "anonymize", "anonymize/"+o.m.name+"/"+o.t.name
			sync.path = "/anonymize?" + o.m.anonymizeQuery() + "&" + o.t.query
			p.warm = append(p.warm, sync)
			p.checks[sync.key] = e.refs.checkAnonymize(o.t, o.m)
		}
		p.rounds = rounds(jobsRoundsPerSecond, seconds, e.sc)
		digestPlan(p)
		return p, nil
	},
	warm: func(ctx context.Context, c *cluster, p *plan) error {
		rec := sendOps(ctx, c.e.client, c.serving.base, p.warm)
		if rec.failed > 0 {
			return rec.firstErr
		}
		if failed, err := checkReplies(p.checks, rec.replies); failed > 0 {
			return err
		}
		// One job end to end, so the manager's worker pool and the journal
		// directory exist before timing starts: the cheapest of the matrix.
		_, _, ok := runJob(ctx, c.e.client, c.serving.base, rec, &p.round[len(p.round)-1])
		if !ok {
			return rec.firstErr
		}
		return nil
	},
	load: func(ctx context.Context, c *cluster, p *plan) ([]*recorder, []roundStat) {
		return runRounds(c, p.rounds, shareOps(p.round, func(rec *recorder, o *op) {
			out, id, ok := runJob(ctx, c.e.client, c.serving.base, rec, o)
			if !ok {
				return
			}
			rec.keep(o.key, out)
			if o == &p.round[len(p.round)-1] {
				p.lastJob = id // written by one client per round, read after the phase
			}
		}))
	},
	recover: func(ctx context.Context, c *cluster, p *plan) (func() error, error) {
		if err := c.restart(ctx); err != nil {
			return nil, err
		}
		last := p.round[len(p.round)-1]
		o := op{kind: "job_result", method: http.MethodGet, path: "/jobs/" + p.lastJob + "/result"}
		status, body, _, err := call(ctx, c.e.client, c.serving.base, &o)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("job result after restart: HTTP %d", status)
		}
		return func() error { return p.checks[last.key](body) }, nil
	},
}
