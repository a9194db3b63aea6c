// Package a is a ctxpass fixture; it is parsed, never compiled, so the
// selector qualifiers (datalog, vadasa, oracle) need no imports.
package a

import (
	"context"
	"net/http"
	"time"
)

type db struct{}
type model struct{}

func (*model) Anonymize(d *db) error                              { return nil }
func (*model) AnonymizeContext(ctx context.Context, d *db) error  { return nil }
func (*model) AssessRiskContext(ctx context.Context, d *db) error { return nil }

// BareNoContext spawns evaluation with no way to cancel it.
func BareNoContext(m *model, d *db) error {
	m, d = m, d
	return datalog.Run(d) // want `exported BareNoContext spawns evaluation via Run without accepting a context.Context`
}

// BareWithContext holds a context but drops it on the floor.
func BareWithContext(ctx context.Context, m *model, d *db) error {
	_ = ctx
	return m.Anonymize(d) // want `exported BareWithContext holds a context.Context but spawns evaluation via Anonymize`
}

// BackgroundDespiteParam takes a context but evaluates under Background.
func BackgroundDespiteParam(ctx context.Context, m *model, d *db) error {
	_ = ctx
	return m.AnonymizeContext(context.Background(), d) // want `exported BackgroundDespiteParam has a context.Context parameter but does not thread it into AnonymizeContext`
}

// VariantNoParam calls the threaded form but gives callers no handle.
func VariantNoParam(m *model, d *db) error {
	_ = d
	return m.AssessRiskContext(context.TODO(), d) // want `exported VariantNoParam calls AssessRiskContext without accepting a context.Context`
}

// Threaded passes its parameter straight through: clean.
func Threaded(ctx context.Context, m *model, d *db) error {
	if d == nil {
		return nil
	}
	return m.AnonymizeContext(ctx, d)
}

// Derived threads a context derived from its parameter: clean.
func Derived(ctx context.Context, m *model, d *db) error {
	tctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return m.AnonymizeContext(tctx, d)
}

// Handler threads the request context: clean.
func Handler(w http.ResponseWriter, r *http.Request) {
	m, d := &model{}, &db{}
	_ = vadasa.ReasonContext(r.Context(), d)
	_ = m
}

// Wrapper is the sanctioned single-statement compatibility shim: clean.
func (m *model) Wrapper(d *db) error {
	return m.AnonymizeContext(context.Background(), d)
}

// Detached is annotated as deliberately uncancellable: clean.
func Detached(m *model, d *db) error {
	_ = d
	//ctxpass:ok background job owns its own lifecycle
	return m.AnonymizeContext(context.Background(), d)
}

// OtherRun calls an unrelated Run method: clean (qualifier is not datalog).
func OtherRun(d *db) error {
	_ = d
	return oracle.Run(d)
}

// unexportedBare is not part of the API surface: clean.
func unexportedBare(m *model, d *db) error {
	_ = d
	return m.Anonymize(d)
}
