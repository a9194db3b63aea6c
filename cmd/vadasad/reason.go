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
	"vadasa/internal/datalog"
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
// the pre-flight.
type reasonRequest struct {
	Program string             `json:"program"`
	Facts   map[string][][]any `json:"facts,omitempty"`
	Query   []string           `json:"query,omitempty"`
	Inputs  []string           `json:"inputs,omitempty"`
	Outputs []string           `json:"outputs,omitempty"`
	Allow   []string           `json:"allow,omitempty"`
}

func (s *server) handleReason(w http.ResponseWriter, r *http.Request) error {
	body, err := s.readCharged(w, r)
	if err != nil {
		return badRequest(err)
	}
	var req reasonRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return badRequest(fmt.Errorf("decoding request: %w", err))
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
	inputs := append([]string(nil), req.Inputs...)
	for pred := range req.Facts {
		inputs = append(inputs, pred)
	}
	diags := lint.Source("program", req.Program, &lint.Options{
		Inputs:  inputs,
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

	prog, err := vadasa.ParseProgram(req.Program)
	if err != nil {
		// Unreachable in practice: a parse failure is a VL000 error above.
		return unprocessable(err)
	}
	edb := vadasa.NewFactDB()
	for pred, rows := range req.Facts {
		for _, row := range rows {
			args := make([]vadasa.Val, len(row))
			for i, cell := range row {
				switch v := cell.(type) {
				case string:
					args[i] = vadasa.StrVal(v)
				case float64:
					args[i] = vadasa.NumVal(v)
				default:
					return badRequest(fmt.Errorf("fact %s: argument %d must be a string or number, got %T", pred, i+1, cell))
				}
			}
			edb.Add(pred, args...)
		}
	}

	// A zero MaxWork leaves the engine's own default in place.
	res, err := vadasa.ReasonContext(r.Context(), prog, edb,
		&vadasa.ReasoningOptions{Governor: govern.From(r.Context()), MaxWork: budget})
	if err != nil {
		return unprocessable(err)
	}

	preds := req.Query
	if len(preds) == 0 {
		// Default to everything derived or given; stable order for clients.
		preds = res.DB().Predicates()
		sort.Strings(preds)
	}
	facts := make(map[string][][]any, len(preds))
	for _, pred := range preds {
		rows := res.Facts(pred)
		out := make([][]any, len(rows))
		for i, row := range rows {
			vals := make([]any, len(row))
			for j, v := range row {
				vals[j] = valJSON(v)
			}
			out[i] = vals
		}
		facts[pred] = out
	}
	var violations []string
	for _, v := range res.Violations {
		violations = append(violations, v.String())
	}
	return s.writeJSON(w, http.StatusOK, struct {
		Facts       map[string][][]any    `json:"facts"`
		Violations  []string              `json:"violations,omitempty"`
		Diagnostics []lint.Diagnostic     `json:"diagnostics,omitempty"`
		Stats       vadasa.ReasoningStats `json:"stats"`
	}{facts, violations, diags, res.Stats})
}

// valJSON renders a runtime value for the JSON response: strings and
// numbers natively, labelled nulls and sets in their source-style spelling.
func valJSON(v vadasa.Val) any {
	switch v.Kind() {
	case datalog.KStr:
		return v.StrVal()
	case datalog.KNum:
		return v.NumVal()
	}
	return v.String()
}
