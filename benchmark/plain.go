package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"slices"

	"vadasa/internal/synth"
)

// Schedule sizes: rounds per second of requested run length, calibrated on
// the reference machine (2 cores) so that the measured phase lasts about as
// long as requested at the commit that introduced the benchmark. The schedule
// is a pure function of seed and run length: a faster daemon finishes it
// sooner, it does not get more work.
const (
	// anonymize_native: per round every distinct /anonymize once and every
	// distinct /assess twice (the issue's 2:1 mix).
	nativeRoundsPerSecond = 0.4
	// reason_declarative: per round every /reason over 50k facts once, every
	// /reason over 25k facts twice and every distinct /explain once.
	reasonRoundsPerSecond = 0.45
	// jobs_durable: per round the whole /anonymize matrix once.
	jobsRoundsPerSecond = 0.5
)

// minRounds keeps a lower quartile over rounds meaningful whatever run
// length is asked for.
const minRounds = 4

func rounds(perSecond float64, seconds int, sc scale) int {
	if sc.smoke {
		return 1
	}
	return max(minRounds, int(perSecond*float64(seconds)+0.5))
}

// plainFlags: a daemon with no durable state.
func plainFlags(string, string) ([]string, []string) { return nil, nil }

func warmOps(ctx context.Context, c *cluster, p *plan) error {
	return sendOps(ctx, c.e.client, c.serving.base, p.warm).firstErr
}

func loadOps(ctx context.Context, c *cluster, p *plan) ([]*recorder, []roundStat) {
	return runRounds(c, p.rounds, shareOps(p.round, func(rec *recorder, o *op) {
		if body, ok := rec.do(ctx, c.e.client, c.serving.base, o); ok {
			rec.keep(o.key, body)
		}
	}))
}

// recoverPlain restarts the stateless daemon and has it serve the warm-up's
// first request again; the reply must pass that request's output check.
func recoverPlain(ctx context.Context, c *cluster, p *plan) (func() error, error) {
	if err := c.restart(ctx); err != nil {
		return nil, err
	}
	o := p.warm[0]
	status, body, _, err := call(ctx, c.e.client, c.serving.base, &o)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s after restart: HTTP %d", o.kind, status)
	}
	return func() error { return p.checks[o.key](body) }, nil
}

// anonymizeOps is the /anonymize matrix shared by anonymize_native and (as
// job submissions) jobs_durable: every measure on every table, dearest first
// — the unbalanced table before the balanced ones before the small one, and
// on each the measure that suppresses most first.
func anonymizeOps(tables []*table, endpoint, kind string) []op {
	var ops []op
	for _, t := range []*table{tables[2], tables[1], tables[0], tables[3]} {
		for _, m := range []measureSpec{indiv, reIdent, kAnon} {
			ops = append(ops, op{
				kind: kind, key: kind + "/" + m.name + "/" + t.name,
				method: http.MethodPost, path: endpoint + "?" + m.anonymizeQuery() + "&" + t.query,
				body: t.csv, rows: t.rows(), t: t, m: m,
			})
		}
	}
	return ops
}

// onTable keeps the ops that are about table t.
func onTable(ops []op, t *table) []op {
	var out []op
	for _, o := range ops {
		if o.t == t {
			out = append(out, o)
		}
	}
	return out
}

var anonymizeNative = &workload{
	name: "anonymize_native",
	why: "the paper's core path on a plain daemon: mdb, risk and anon do nearly all the work and datalog, " +
		"journal, stream and replica none, so it is the control for journal and reasoner changes",
	primary:   "assess",
	secondary: "anonymize",
	flags:     plainFlags,
	warm:      warmOps,
	load:      loadOps,
	recover:   recoverPlain,
	plan: func(e *env, seed int64, seconds int) (*plan, error) {
		tables, err := nativeTables(seed, e.sc)
		if err != nil {
			return nil, err
		}
		p := &plan{tables: tables, checks: map[string]check{}}
		var assess []op
		for _, t := range tables[:3] {
			for _, m := range cycleMeasures {
				o := op{
					kind: "assess", key: "assess/" + m.name + "/" + t.name,
					method: http.MethodPost, path: "/assess?" + m.query() + "&" + t.query,
					body: t.csv, rows: t.rows(), t: t, m: m,
				}
				assess = append(assess, o)
				p.checks[o.key] = checkAssess(t, m)
			}
		}
		s := tables[3]
		o := op{
			kind: "assess", key: "assess/suda/" + s.name,
			method: http.MethodPost, path: "/assess?" + suda.query() + "&" + s.query,
			body: s.csv, rows: s.rows(), t: s, m: suda,
		}
		assess = append(assess, o)
		p.checks[o.key] = checkAssess(s, suda)

		anonymize := anonymizeOps(tables, "/anonymize", "anonymize")
		for _, o := range anonymize {
			p.checks[o.key] = e.refs.checkAnonymize(o.t, o.m)
		}
		// Warm-up: every measure through /anonymize on the small table and
		// through /assess on one 25k table. It starts with the cheapest
		// /anonymize: recovery re-serves it.
		p.warm = onTable(anonymize, s)
		slices.Reverse(p.warm)
		p.warm = append(append(p.warm, o), assess[:3]...)
		p.round = append(append(anonymize, assess...), assess...)
		p.rounds = rounds(nativeRoundsPerSecond, seconds, e.sc)
		digestPlan(p)
		return p, nil
	},
}

var reasonDeclarative = &workload{
	name: "reason_declarative",
	why: "datalog load, intern, join and aggregate, the program library and JSON decode and encode dominate " +
		"while GroupIndex, anon and journal are idle: a reasoner change must show here and nowhere else",
	primary:   "reason",
	secondary: "explain",
	flags:     plainFlags,
	warm:      warmOps,
	load:      loadOps,
	recover:   recoverPlain,
	plan: func(e *env, seed int64, seconds int) (*plan, error) {
		specs := []struct {
			name   string
			tuples int
			dist   synth.Dist
		}{
			{"R25A4W", 25000, synth.DistW},
			{"R25A4U", 25000, synth.DistU},
			{"R25A4V", 25000, synth.DistV},
			{"R50A4U", 50000, synth.DistU},
		}
		p := &plan{checks: map[string]check{}}
		for i, s := range specs {
			t, err := genTable(s.name, s.tuples, 4, s.dist, synthSeed(seed, 8+i), e.sc)
			if err != nil {
				return nil, err
			}
			p.tables = append(p.tables, t)
		}
		// /reason: every program over the 50k table, once, and over one 25k
		// table, twice; the dearest requests come first.
		reason := func(i int, t *table) op {
			m := cycleMeasures[i]
			o := op{
				kind: "reason", key: "reason/" + m.name + "/" + t.name,
				method: http.MethodPost, path: "/reason",
				body: reasonBody(declProgram(m), t), rows: t.rows(), t: t, m: m,
			}
			p.checks[o.key] = checkReason(t, m)
			return o
		}
		for i := range cycleMeasures {
			p.round = append(p.round, reason(i, p.tables[3]))
		}
		for i := range cycleMeasures {
			o := reason(i, p.tables[i])
			p.round = append(p.round, o, o)
		}
		// /explain: one tuple's derivation tree over each 25k CSV; the tuple
		// is picked by the seed.
		rng := rand.New(rand.NewSource(seed))
		for i, m := range []measureSpec{kAnon, reIdent, kAnon, reIdent} {
			t := p.tables[i%3]
			tuple := t.data.Rows[rng.Intn(t.rows())].ID
			o := op{
				kind: "explain", key: fmt.Sprintf("explain/%s/%s/%d", m.name, t.name, tuple),
				method: http.MethodPost, path: fmt.Sprintf("/explain?%s&tuple=%d&%s", m.query(), tuple, t.query),
				body: t.csv, rows: t.rows(), t: t, m: m, tuple: tuple,
			}
			p.round = append(p.round, o)
			p.checks[o.key] = checkExplain(t, m, tuple)
		}
		// Warm-up: one /explain (recovery re-serves it) and one /reason.
		p.warm = []op{p.round[len(p.round)-1], p.round[3]}
		p.rounds = rounds(reasonRoundsPerSecond, seconds, e.sc)
		digestPlan(p)
		return p, nil
	},
}
