package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"

	"vadasa"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// check verifies one kept reply of a distinct request against a reference
// computed in-process through the root vadasa package.
type check func(body []byte) error

// nativeMeasure is the library value the daemon builds for the same query
// parameters (cmd/vadasad measureFromValues).
func nativeMeasure(m measureSpec) vadasa.RiskMeasure {
	switch m.name {
	case kAnon.name:
		return vadasa.KAnonymity{K: 3}
	case reIdent.name:
		return vadasa.ReIdentification{}
	case indiv.name:
		return vadasa.IndividualRisk{Estimator: vadasa.PosteriorEstimator}
	default:
		return vadasa.SUDA{Threshold: 3}
	}
}

// refCache memoises reference anonymizations by table content and measure:
// the sync and the durable workload check against the same ones, a run's
// repeated set-ups regenerate identical tables, and each costs a full cycle.
type refCache struct {
	mu   sync.Mutex
	sums map[refKey][sha256.Size]byte
}

type refKey struct {
	table   [sha256.Size]byte
	measure string
}

// anonymized returns the SHA-256 of the CSV Framework.Anonymize produces for
// the table under the measure.
func (c *refCache) anonymized(t *table, m measureSpec) ([sha256.Size]byte, error) {
	key := refKey{t.sum, m.name}
	c.mu.Lock()
	sum, ok := c.sums[key]
	c.mu.Unlock()
	if ok {
		return sum, nil
	}
	res, err := vadasa.New().Anonymize(t.data, vadasa.CycleOptions{Measure: nativeMeasure(m), Threshold: m.threshold})
	if err != nil {
		return sum, fmt.Errorf("reference anonymization of %s under %s: %w", t.name, m.name, err)
	}
	var buf bytes.Buffer
	if err := vadasa.WriteCSV(&buf, res.Dataset); err != nil {
		return sum, err
	}
	sum = sha256.Sum256(buf.Bytes())
	c.mu.Lock()
	if c.sums == nil {
		c.sums = map[refKey][sha256.Size]byte{}
	}
	c.sums[key] = sum
	c.mu.Unlock()
	return sum, nil
}

// matches reports whether csv is byte-identical to Framework.Anonymize on the
// same input.
func (c *refCache) matches(what string, t *table, m measureSpec, csv []byte) error {
	want, err := c.anonymized(t, m)
	if err != nil {
		return err
	}
	if sha256.Sum256(csv) != want {
		return fmt.Errorf("%s %s %s: differs from Framework.Anonymize", what, t.name, m.name)
	}
	return nil
}

// checkAnonymize: the /anonymize reply's csv is the reference, byte for byte.
func (c *refCache) checkAnonymize(t *table, m measureSpec) check {
	return func(body []byte) error {
		var out struct {
			CSV string `json:"csv"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("decoding /anonymize reply: %w", err)
		}
		return c.matches("/anonymize csv", t, m, []byte(out.CSV))
	}
}

// checkJobResult: the job's result file is the reference, byte for byte.
func (c *refCache) checkJobResult(t *table, m measureSpec) check {
	return func(body []byte) error { return c.matches("job result", t, m, body) }
}

// checkAssess: the reply covers every tuple and flags exactly the tuples the
// library flags at the endpoint's default threshold.
func checkAssess(t *table, m measureSpec) check {
	return func(body []byte) error {
		var out struct {
			Tuples int   `json:"tuples"`
			Risky  []int `json:"riskyTupleIds"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("decoding /assess reply: %w", err)
		}
		risks, err := vadasa.New().AssessRisk(t.data, nativeMeasure(m))
		if err != nil {
			return err
		}
		var want []int
		for i, r := range risks {
			if r > 0.5 {
				want = append(want, t.data.Rows[i].ID)
			}
		}
		if out.Tuples != t.rows() || !slices.Equal(out.Risky, want) {
			return fmt.Errorf("/assess %s %s: %d tuples, %d risky; library says %d, %d",
				t.name, m.name, out.Tuples, len(out.Risky), t.rows(), len(want))
		}
		return nil
	}
}

// declReference is the native risk vector a declarative program must
// reproduce. programs.IndividualRisk is the paper's plain F/ΣW; the native
// estimator additionally caps groups whose sample exhausts the estimated
// population, so for that program the reference is F/ΣW over the native group
// aggregates rather than the capped score.
func declReference(t *table, m measureSpec) ([]float64, error) {
	switch m.name {
	case kAnon.name:
		return risk.KAnonymity{K: 3}.Assess(t.data, mdb.MaybeMatch)
	case reIdent.name:
		return risk.ReIdentification{}.Assess(t.data, mdb.MaybeMatch)
	}
	groups := mdb.ComputeGroups(t.data, t.data.QuasiIdentifiers(), mdb.MaybeMatch)
	out := make([]float64, len(groups))
	for i, g := range groups {
		out[i] = float64(g.Freq) / g.WeightSum
	}
	return out, nil
}

// checkReason: riskout(I, R) equals the native risk of tuple I. Monotonic
// aggregation may leave several refinements per tuple; the largest is final
// (programs.DecodeRisk). Sums may associate differently, hence the tolerance.
func checkReason(t *table, m measureSpec) check {
	return func(body []byte) error {
		var out struct {
			Facts map[string][][]float64 `json:"facts"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("decoding /reason reply: %w", err)
		}
		got := make(map[int]float64, t.rows())
		for _, f := range out.Facts["riskout"] {
			if len(f) != 2 {
				return fmt.Errorf("/reason %s %s: riskout fact of arity %d", t.name, m.name, len(f))
			}
			id := int(f[0])
			if cur, ok := got[id]; !ok || f[1] > cur {
				got[id] = f[1]
			}
		}
		want, err := declReference(t, m)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("/reason %s %s: riskout covers %d tuples of %d", t.name, m.name, len(got), len(want))
		}
		for i, w := range want {
			g, ok := got[t.data.Rows[i].ID]
			if !ok || math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("/reason %s %s: riskout differs from the native measure at row %d", t.name, m.name, i)
			}
		}
		return nil
	}
}

// checkExplain: the derivation tree served equals the library's for the
// same tuple.
func checkExplain(t *table, m measureSpec, tuple int) check {
	return func(body []byte) error {
		var out struct {
			Explanation string `json:"explanation"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Errorf("decoding /explain reply: %w", err)
		}
		want, err := vadasa.New().ExplainRisk(t.data, nativeMeasure(m), tuple)
		if err != nil {
			return err
		}
		if out.Explanation == "" || sha256.Sum256([]byte(out.Explanation)) != sha256.Sum256([]byte(want)) {
			return fmt.Errorf("/explain %s %s: explanation differs from Framework.ExplainRisk", t.name, m.name)
		}
		return nil
	}
}

// checkReplies runs every kept reply through its key's check, numClients at
// a time, and returns how many replies failed and the first failure. Replies
// that were dropped as byte-identical to a kept one share its verdict.
// A reply without a registered check fails: nothing goes unchecked by accident.
func checkReplies(checks map[string]check, replies []reply) (failed int, first error) {
	type verdictKey struct {
		key string
		sum [sha256.Size]byte
	}
	var (
		mu       sync.Mutex
		verdicts = map[verdictKey]error{}
		wg       sync.WaitGroup
		tasks    = make(chan reply)
	)
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range tasks {
				var err error
				if chk, ok := checks[rep.key]; !ok {
					err = fmt.Errorf("no output check registered for %q", rep.key)
				} else {
					err = chk(rep.body)
				}
				mu.Lock()
				verdicts[verdictKey{rep.key, rep.sum}] = err
				mu.Unlock()
			}
		}()
	}
	queued := map[verdictKey]bool{} // both clients keep a first body per key
	for _, rep := range replies {
		if k := (verdictKey{rep.key, rep.sum}); rep.body != nil && !queued[k] {
			queued[k] = true
			tasks <- rep
		}
	}
	close(tasks)
	wg.Wait()
	for _, rep := range replies {
		if err := verdicts[verdictKey{rep.key, rep.sum}]; err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}
