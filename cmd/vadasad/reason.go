package main

// The program-upload surface: POST /lint runs the static analyzer over
// user-supplied Vadalog source and always answers 200 with the structured
// diagnostics; POST /reason pre-flights the program with the same analyzer
// and refuses to evaluate anything carrying error-severity findings — the
// 422 body carries the diagnostics so clients can fix the program instead
// of decoding a first-error-wins string.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"vadasa"
	"vadasa/internal/datalog/lint"
	"vadasa/internal/govern"
)

// handleLint lints the posted program source. The response is always 200
// with the full diagnostics — a lint request succeeds even when the program
// is broken; ?inputs=, ?outputs= and ?allow= supplement the source's own
// vadalint directives.
func (s *server) handleLint(w http.ResponseWriter, r *http.Request) error {
	body, err := s.readCharged(w, r)
	if err != nil {
		return badRequest(err)
	}
	q := r.URL.Query()
	diags := lint.Source("program", string(body), &lint.Options{
		Inputs:  splitValues(q, "inputs"),
		Outputs: splitValues(q, "outputs"),
		Allow:   splitValues(q, "allow"),
	})
	if diags == nil {
		diags = []lint.Diagnostic{}
	}
	return s.writeJSON(w, http.StatusOK, struct {
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
		Errors      int               `json:"errors"`
	}{diags, countErrors(diags)})
}

func countErrors(diags []lint.Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Severity == lint.SeverityError {
			n++
		}
	}
	return n
}

// reasonRequest is the POST /reason body: a program, its extensional facts
// (rows of JSON strings and numbers per predicate), and the predicates to
// return. Inputs/Outputs/Allow supplement the program's own directives for
// the pre-flight. decodeReasonRequest fills it: the envelope goes through
// encoding/json — duplicate, unknown and case-folded keys are its business —
// but each predicate's rows stay raw bytes of the body, which loadRows walks
// straight into the engine's row loader once the program has passed the
// pre-flight.
type reasonRequest struct {
	Program string                     `json:"program"`
	Facts   map[string]json.RawMessage `json:"facts,omitempty"` //conftaint:source raw fact rows: request microdata
	Query   []string                   `json:"query,omitempty"`
	Inputs  []string                   `json:"inputs,omitempty"`
	Outputs []string                   `json:"outputs,omitempty"`
	Allow   []string                   `json:"allow,omitempty"`

	sizes map[string]factSize // each predicate's rows and cells, as the scan counted them
}

// factPredicates lists the predicates the request carries facts for, in the
// (sorted) order they are declared to the pre-flight and loaded in.
func (req *reasonRequest) factPredicates() []string {
	preds := make([]string, 0, len(req.Facts))
	for pred := range req.Facts {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	return preds
}

// loadFacts builds the extensional database from the request's raw rows,
// each relation sized once to what the scan counted.
func (req *reasonRequest) loadFacts(preds []string) (*vadasa.FactDB, error) {
	edb := vadasa.NewFactDB()
	for _, pred := range preds {
		l, n := edb.Loader(pred), req.sizes[pred]
		l.Grow(n.rows, n.cells)
		if err := loadRows(l, pred, req.Facts[pred]); err != nil {
			return nil, err
		}
	}
	return edb, nil
}

func (s *server) handleReason(w http.ResponseWriter, r *http.Request) error {
	body, err := s.readCharged(w, r)
	if err != nil {
		return badRequest(err)
	}
	req, err := decodeReasonRequest(body)
	if err != nil {
		return badRequest(err)
	}
	if req.Program == "" {
		return badRequest(fmt.Errorf("the program field is required"))
	}
	budget, err := s.parseBudget(r.URL.Query())
	if err != nil {
		return badRequest(err)
	}

	// Pre-flight: fact predicates are extensional by definition, queried
	// predicates are outputs. Any error-severity finding refuses evaluation.
	factPreds := req.factPredicates()
	prog, diags := lint.Parse("program", req.Program, &lint.Options{
		Inputs:  append(append([]string(nil), req.Inputs...), factPreds...),
		Outputs: append(append([]string(nil), req.Outputs...), req.Query...),
		Allow:   req.Allow,
	})
	if lint.HasErrors(diags) {
		return &statusError{
			status: http.StatusUnprocessableEntity,
			err:    errors.New("program rejected by static analysis"),
			fields: map[string]any{"diagnostics": diags},
		}
	}

	edb, err := req.loadFacts(factPreds)
	if err != nil {
		return badRequest(err)
	}

	// A zero MaxWork leaves the engine's own default in place.
	res, err := vadasa.ReasonContext(r.Context(), prog, edb,
		&vadasa.ReasoningOptions{Governor: govern.From(r.Context()), MaxWork: budget})
	if err != nil {
		return unprocessable(err)
	}

	preds := req.Query
	if len(preds) == 0 {
		// Default to everything derived or given.
		preds = res.DB().Predicates()
	}
	var violations []string
	for _, v := range res.Violations {
		violations = append(violations, v.String())
	}
	return s.writeReasonResponse(w, res, preds, struct {
		Violations  []string              `json:"violations,omitempty"`
		Diagnostics []lint.Diagnostic     `json:"diagnostics,omitempty"`
		Stats       vadasa.ReasoningStats `json:"stats"`
	}{violations, diags, res.Stats})
}
