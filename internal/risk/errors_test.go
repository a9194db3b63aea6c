package risk

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vadasa/internal/mdb"
)

func TestMSUsTooManyAttributesTypedError(t *testing.T) {
	attrs := make([]mdb.Attribute, 31)
	for i := range attrs {
		attrs[i] = mdb.Attribute{Name: fmt.Sprintf("a%d", i), Category: mdb.QuasiIdentifier}
	}
	d := mdb.NewDataset("wide", attrs)
	row := &mdb.Row{Values: make([]mdb.Value, len(attrs))}
	for i := range row.Values {
		row.Values[i] = mdb.Const("x")
	}
	d.Append(row)

	_, err := SUDA{Threshold: 3}.AssessContext(context.Background(), d, mdb.MaybeMatch)
	var tooMany *ErrTooManyAttributes
	if !errors.As(err, &tooMany) {
		t.Fatalf("err = %v, want *ErrTooManyAttributes", err)
	}
	if tooMany.Count != 31 || tooMany.Max != MaxMSUAttributes {
		t.Fatalf("ErrTooManyAttributes = %+v", tooMany)
	}
	if IsTransient(err) {
		t.Fatal("ErrTooManyAttributes classified transient; retries cannot fix it")
	}
}

func TestTransientClassification(t *testing.T) {
	base := errors.New("connection reset")
	marked := MarkTransient(base)
	if !IsTransient(marked) {
		t.Fatal("marked error not transient")
	}
	if !IsTransient(fmt.Errorf("assessing: %w", marked)) {
		t.Fatal("wrapping lost the transient mark")
	}
	if !errors.Is(marked, base) {
		t.Fatal("MarkTransient broke the error chain")
	}
	if IsTransient(base) {
		t.Fatal("unmarked error reported transient")
	}
	if IsTransient(context.Canceled) || IsTransient(context.DeadlineExceeded) {
		t.Fatal("cancellation must be permanent: it is deliberate abandonment")
	}
	if IsTransient(nil) {
		t.Fatal("nil error reported transient")
	}
	if MarkTransient(nil) != nil {
		t.Fatal("MarkTransient(nil) != nil")
	}
}
