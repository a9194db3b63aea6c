package stream

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// TestOpenJournalFixture reopens a stream journal an earlier build of the
// daemon wrote — three batches, two withdrawals, two gated and acked
// releases, a drain checkpoint — and holds what it recovers to the figures
// that build recovered: status, digest and the bytes of the next release,
// which it must then accept an append after.
func TestOpenJournalFixture(t *testing.T) {
	ctx := context.Background()
	raw, err := os.ReadFile(filepath.Join("..", "journal", "testdata", "stream.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s1.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(ctx, "s1", path, Options{Assessor: risk.KAnonymity{K: 2}, Threshold: 0.5, Semantics: mdb.MaybeMatch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)

	wantStatus := Status{Rows: 126, Batches: 3, Withdrawn: 4, Releases: 2, Acked: 2, Mode: "incremental", RiskCurrent: true}
	if st := s.Status(ctx); st != wantStatus {
		t.Fatalf("status %+v, want %+v", st, wantStatus)
	}
	const window = "7ebddc772e59ee588062c9daaca17640f7178ec73f8ec5d8bda60c07bbab0acb"
	wantDigest := Digest{Seq: 17, Rows: 126, Window: window, Risk: "a9e080790cc3b9e7a988324b4ec1cc1432a8f43cf897c78318943a0670f171f6"}
	if d, err := s.Digest(ctx); err != nil || *d != wantDigest {
		t.Fatalf("digest %+v, %v; want %+v", d, err, wantDigest)
	}
	rel, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Seq != 3 || rel.Rows != 126 || rel.Suppressions != 0 || rel.Digest != window {
		t.Fatalf("release %+v", rel)
	}
	b, err := s.ReleaseBytes(rel)
	if err != nil || len(b) != 4764 || digestBytes(b) != window {
		t.Fatalf("release bytes: %d of them, digest %s, %v", len(b), digestBytes(b), err)
	}
	if err := s.Ack(ctx, rel.Seq); err != nil {
		t.Fatal(err)
	}
	next := [][]string{{"200000", "Milano", "Commerce", "0-9", "0-10", "100"}, {"200001", "Milano", "Commerce", "0-9", "0-10", "100"}}
	if res, err := s.Append(ctx, "next", next); err != nil || res.Rows != 128 {
		t.Fatalf("append after the reopen: %+v, %v", res, err)
	}
}
