package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"vadasa/internal/faultfs"
	"vadasa/internal/govern"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

func testAttrs() []mdb.Attribute {
	return []mdb.Attribute{
		{Name: "Id", Category: mdb.Identifier},
		{Name: "Sector", Category: mdb.QuasiIdentifier},
		{Name: "Region", Category: mdb.QuasiIdentifier},
		{Name: "Size", Category: mdb.QuasiIdentifier},
		{Name: "Weight", Category: mdb.Weight},
	}
}

// testRows builds n deterministic rows whose quasi-identifiers pair up by
// absolute index: an even-sized window starting at an even offset satisfies
// k=2 with no suppressions (deterministic fsync counts for fault
// injection), while withdrawals and odd batches create singletons that
// exercise the gate.
func testRows(start, n int) [][]string {
	out := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		k := (start + i) / 2
		out = append(out, []string{
			fmt.Sprintf("c%d", start+i),
			fmt.Sprintf("sector%d", k%3),
			fmt.Sprintf("region%d", k%2),
			fmt.Sprintf("size%d", k%4),
			fmt.Sprintf("%d", 10+(start+i)%5),
		})
	}
	return out
}

func testOptions() Options {
	return Options{
		Assessor:  risk.KAnonymity{K: 2},
		Threshold: 0.5,
		Semantics: mdb.MaybeMatch,
		Attrs:     testAttrs(),
	}
}

func openTest(t *testing.T, dir string, opts Options) *Stream {
	t.Helper()
	s, err := Open(context.Background(), "tst", filepath.Join(dir, "tst.wal"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppendReleaseAckCycle(t *testing.T) {
	ctx := context.Background()
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close(ctx)

	res, err := s.Append(ctx, "b1", testRows(0, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RowIDs) != 6 || res.Rows != 6 || res.Duplicate {
		t.Fatalf("append result %+v", res)
	}
	// Idempotent retry: same batch ID is acknowledged, not re-applied.
	res2, err := s.Append(ctx, "b1", testRows(0, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Duplicate || res2.Rows != 6 {
		t.Fatalf("duplicate append result %+v", res2)
	}

	st := s.Status(ctx)
	if st.Rows != 6 || st.Batches != 1 || st.Mode != "incremental" || !st.RiskCurrent {
		t.Fatalf("status %+v", st)
	}

	info, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.Rows != 6 {
		t.Fatalf("release info %+v", info)
	}
	b, err := s.ReleaseBytes(info)
	if err != nil {
		t.Fatal(err)
	}
	if digestBytes(b) != info.Digest {
		t.Fatal("served bytes contradict the journaled digest")
	}
	// Re-serving before the ack returns the same release unchanged.
	again, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again.Seq != 1 || again.Digest != info.Digest {
		t.Fatalf("re-served release %+v, want the published seq 1", again)
	}

	if err := s.Ack(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Ack(ctx, 1); err != nil {
		t.Fatalf("re-acking a retired release must be idempotent, got %v", err)
	}

	if _, err := s.Append(ctx, "b2", testRows(6, 4)); err != nil {
		t.Fatal(err)
	}
	info2, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Seq != 2 || info2.Rows != 10 {
		t.Fatalf("second release %+v", info2)
	}
	st = s.Status(ctx)
	if st.Releases != 2 || st.Acked != 1 {
		t.Fatalf("status after two releases: %+v", st)
	}
}

func TestAppendValidation(t *testing.T) {
	ctx := context.Background()
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close(ctx)

	cases := []struct {
		name string
		id   string
		rows [][]string
	}{
		{"empty batch id", "", testRows(0, 1)},
		{"empty batch", "b", nil},
		{"arity", "b", [][]string{{"c1", "s", "r"}}},
		{"null token", "b", [][]string{{"c1", "⊥3", "r", "z", "10"}}},
		{"anonymous null", "b", [][]string{{"c1", "*", "r", "z", "10"}}},
		{"bad weight", "b", [][]string{{"c1", "s", "r", "z", "heavy"}}},
		{"NaN weight", "b", [][]string{{"c1", "s", "r", "z", "NaN"}}},
		{"infinite weight", "b", [][]string{{"c1", "s", "r", "z", "Inf"}}},
		{"zero weight", "b", [][]string{{"c1", "s", "r", "z", "0"}}},
		{"negative weight", "b", [][]string{{"c1", "s", "r", "z", "-3"}}},
	}
	for _, c := range cases {
		if _, err := s.Append(ctx, c.id, c.rows); err == nil {
			t.Errorf("%s: append accepted", c.name)
		}
	}
	if st := s.Status(ctx); st.Rows != 0 || st.Batches != 0 || s.w.Seq() != 1 {
		t.Fatalf("rejected appends mutated the window or the journal (seq %d): %+v", s.w.Seq(), st)
	}
}

// A batch journaled before appends were held to the weight rule replays as
// it was acknowledged: the journal reopens and the window holds the row.
func TestJournaledNonFiniteWeightReplays(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	rows := append(testRows(0, 2), []string{"c9", "s", "r", "z", "NaN"})
	if err := s.w.Append(recBatch, batchPayload{BatchID: "b1", Rows: rows}); err != nil {
		t.Fatal(err)
	}
	s.applyBatch("b1", rows)
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, testOptions())
	defer s.Close(ctx)
	if st := s.Status(ctx); st.Rows != 3 || st.Batches != 1 {
		t.Fatalf("status after replay: %+v", st)
	}
	if w := s.d.Rows[2].Weight; !math.IsNaN(w) {
		t.Fatalf("replayed weight %g, want the journaled NaN", w)
	}
}

func TestWindowFull(t *testing.T) {
	ctx := context.Background()
	opts := testOptions()
	opts.MaxRows = 5
	s := openTest(t, t.TempDir(), opts)
	defer s.Close(ctx)

	if _, err := s.Append(ctx, "b1", testRows(0, 4)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Append(ctx, "b2", testRows(4, 2))
	var full *WindowFullError
	if !errors.As(err, &full) {
		t.Fatalf("err = %v, want WindowFullError", err)
	}
	if full.Rows != 4 || full.Adding != 2 || full.Max != 5 {
		t.Fatalf("window-full detail %+v", full)
	}
	if _, err := s.Append(ctx, "b2", testRows(4, 1)); err != nil {
		t.Fatalf("append within the bound: %v", err)
	}
}

func TestWithdraw(t *testing.T) {
	ctx := context.Background()
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close(ctx)

	res, err := s.Append(ctx, "b1", testRows(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Withdraw(ctx, []int{res.RowIDs[2], res.RowIDs[5]}); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(ctx); st.Rows != 6 || st.Withdrawn != 2 {
		t.Fatalf("status after withdraw: %+v", st)
	}
	if err := s.Withdraw(ctx, []int{res.RowIDs[2]}); err == nil {
		t.Fatal("withdrawing a withdrawn row succeeded")
	}
	// The risk vector read after the deletes must equal a scratch
	// assessment of the remaining window.
	s.mu.Lock()
	got, err := s.currentRisks(ctx)
	if err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	want, err := risk.AssessContext(ctx, s.opts.Assessor, s.d, s.opts.Semantics)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("risk vector length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("risk[%d] = %v, scratch %v", i, got[i], want[i])
		}
	}
}

// driveOps runs a fixed op sequence against a stream factory, reopening
// between ops when hop is true, and returns the bytes of every release.
func driveOps(t *testing.T, dir string, opts Options, hop bool) [][]byte {
	t.Helper()
	ctx := context.Background()
	path := filepath.Join(dir, "tst.wal")
	s, err := Open(ctx, "tst", path, opts)
	if err != nil {
		t.Fatal(err)
	}
	reopen := func() {
		if !hop {
			return
		}
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(ctx, "tst", path, opts); err != nil {
			t.Fatal(err)
		}
	}
	var releases [][]byte
	release := func() {
		info, err := s.Release(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.ReleaseBytes(info)
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, b)
		if err := s.Ack(ctx, info.Seq); err != nil {
			t.Fatal(err)
		}
	}

	var ids []int
	appendBatch := func(name string, start, n int) {
		res, err := s.Append(ctx, name, testRows(start, n))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.RowIDs...)
	}

	// Eight batches before the first release, none of them scored.
	for b := 0; b < 8; b++ {
		appendBatch(fmt.Sprintf("b%d", b+1), 2*b, 2)
		reopen()
	}
	if err := s.Withdraw(ctx, []int{ids[3], ids[8]}); err != nil {
		t.Fatal(err)
	}
	reopen()
	release()
	reopen()
	appendBatch("b9", 16, 4)
	reopen()
	release()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return releases
}

// Recovery by replay must be bit-identical to an uninterrupted run: the
// same op sequence, with a close+reopen between every op, produces byte-for-
// byte the same releases.
func TestRecoveryMatchesUninterrupted(t *testing.T) {
	control := driveOps(t, t.TempDir(), testOptions(), false)
	hopped := driveOps(t, t.TempDir(), testOptions(), true)
	if len(control) != len(hopped) {
		t.Fatalf("control produced %d releases, hopped %d", len(control), len(hopped))
	}
	for i := range control {
		if !bytes.Equal(control[i], hopped[i]) {
			t.Fatalf("release %d differs between uninterrupted and replayed runs", i+1)
		}
	}
}

// fullOnly hides the incremental interface of an assessor, forcing one-shot
// scoring.
type fullOnly struct{ inner risk.Assessor }

func (f fullOnly) Name() string { return f.inner.Name() }
func (f fullOnly) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return f.inner.Assess(d, sem)
}

// One-shot scoring must release the same bytes as the incremental path:
// mode is a performance choice, never a semantics one.
func TestDegradedModeBitIdentical(t *testing.T) {
	inc := driveOps(t, t.TempDir(), testOptions(), false)
	opts := testOptions()
	opts.Assessor = fullOnly{inner: risk.KAnonymity{K: 2}}
	full := driveOps(t, t.TempDir(), opts, false)
	if len(inc) != len(full) {
		t.Fatalf("incremental produced %d releases, degraded %d", len(inc), len(full))
	}
	for i := range inc {
		if !bytes.Equal(inc[i], full[i]) {
			t.Fatalf("release %d differs between incremental and degraded modes", i+1)
		}
	}
	// And the degraded mode must also recover bit-identically.
	hopped := driveOps(t, t.TempDir(), opts, true)
	for i := range full {
		if !bytes.Equal(full[i], hopped[i]) {
			t.Fatalf("degraded release %d differs after replay", i+1)
		}
	}
}

// Under standard-null semantics suppression cannot merge groups, so a
// window of unique tuples can never clear the gate: Release must refuse
// with a GateClosedError and publish nothing.
func TestGateClosed(t *testing.T) {
	ctx := context.Background()
	opts := testOptions()
	opts.Semantics = mdb.StandardNulls
	s := openTest(t, t.TempDir(), opts)
	defer s.Close(ctx)

	rows := [][]string{
		{"c1", "alpha", "north", "s1", "10"},
		{"c2", "beta", "south", "s2", "11"},
	}
	if _, err := s.Append(ctx, "b1", rows); err != nil {
		t.Fatal(err)
	}
	_, err := s.Release(ctx)
	var gate *GateClosedError
	if !errors.As(err, &gate) {
		t.Fatalf("err = %v, want GateClosedError", err)
	}
	if gate.Residual != 2 {
		t.Fatalf("residual = %d, want 2", gate.Residual)
	}
	if st := s.Status(ctx); st.Releases != 0 || st.Published != nil {
		t.Fatalf("refused gate published something: %+v", st)
	}
}

// A saturated governor refuses admission with a typed budget error and the
// refused batch leaves no trace — neither in memory nor in the journal.
func TestGovernorAdmission(t *testing.T) {
	ctx := context.Background()
	gov := govern.New("tiny", govern.Limits{MaxBytes: 1})
	opts := testOptions()
	opts.Governor = gov
	dir := t.TempDir()
	s := openTest(t, dir, opts)
	defer s.Close(ctx)

	_, err := s.Append(ctx, "b1", testRows(0, 4))
	var ebe *govern.ErrBudgetExceeded
	if !errors.As(err, &ebe) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if st := s.Status(ctx); st.Rows != 0 || st.Batches != 0 {
		t.Fatalf("refused batch mutated the window: %+v", st)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Reopen without the budget: the journal must hold no trace of the
	// refused batch.
	opts.Governor = nil
	s2 := openTest(t, dir, opts)
	defer s2.Close(ctx)
	if st := s2.Status(ctx); st.Rows != 0 || st.Batches != 0 {
		t.Fatalf("journal recorded a refused batch: %+v", st)
	}
}

// A budget big enough for the window but too small for the group index
// degrades the stream to one-shot scoring instead of failing the read, and
// the release still goes out.
func TestBudgetRefusalDegrades(t *testing.T) {
	ctx := context.Background()
	rows := testRows(0, 8)

	// Measure the index footprint the stream would want.
	probe := mdb.NewDataset("probe", testAttrs())
	var alloc mdb.NullAllocator
	for _, r := range rows {
		vals := make([]mdb.Value, len(r))
		for j, c := range r {
			vals[j] = mdb.ParseValue(c, &alloc)
		}
		probe.Append(&mdb.Row{Values: vals})
	}
	ia := risk.KAnonymity{K: 2}
	by, err := ia.Grouping(probe)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := mdb.BuildIndex(ctx, probe, by, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	limit := batchBytes(rows) + idx.EstimatedBytes()/2

	opts := testOptions()
	opts.Governor = govern.New("mid", govern.Limits{MaxBytes: limit})
	s := openTest(t, t.TempDir(), opts)
	defer s.Close(ctx)

	if _, err := s.Append(ctx, "b1", rows); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(ctx); st.Mode != "full" {
		t.Fatalf("mode = %q, want full (degraded)", st.Mode)
	}
	// A digest leaves the one-shot vector current; the release must still
	// try for the index, be refused again and go out degraded.
	if _, err := s.Digest(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 {
		t.Fatalf("release %+v", info)
	}
	if st := s.Status(ctx); st.Mode != "full" || !st.RiskCurrent {
		t.Fatalf("after the degraded release: %+v, want full and current", st)
	}
	// The degraded release must equal the un-governed control's bytes.
	ctl := openTest(t, t.TempDir(), testOptions())
	defer ctl.Close(ctx)
	if _, err := ctl.Append(ctx, "b1", rows); err != nil {
		t.Fatal(err)
	}
	ctlInfo, err := ctl.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctlInfo.Digest != info.Digest {
		t.Fatal("degraded release differs from the incremental control")
	}
}

func TestPeek(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := testOptions()
	opts.Meta = []byte(`{"measure":"k-anonymity","k":2}`)
	s := openTest(t, dir, opts)
	if _, err := s.Append(ctx, "b1", testRows(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := Peek(ctx, nil, filepath.Join(dir, "tst.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "tst" || info.Threshold != 0.5 || info.Semantics != mdb.MaybeMatch {
		t.Fatalf("peek info %+v", info)
	}
	if len(info.Attrs) != 5 || info.Attrs[1].Category != mdb.QuasiIdentifier {
		t.Fatalf("peek attrs %+v", info.Attrs)
	}
	if string(info.Meta) != string(opts.Meta) {
		t.Fatalf("peek meta %s", info.Meta)
	}
}

// While a journaled intent awaits its publish record every mutation is
// rejected: the window must stay exactly the promised snapshot.
func TestPendingBlocksMutations(t *testing.T) {
	ctx := context.Background()
	faulty := faultfs.NewFaulty(faultfs.OS)
	opts := testOptions()
	opts.FS = faulty
	s := openTest(t, t.TempDir(), opts)
	defer s.Close(ctx)

	res, err := s.Append(ctx, "b1", testRows(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	// The gate needs no suppressions (rows pair up), so Release fsyncs
	// intent (1), the release file (2), publish (3). Fail the third.
	faulty.FailSync(3)
	if _, err := s.Release(ctx); err == nil {
		t.Fatal("release succeeded despite failed publish fsync")
	}
	var pend *PendingReleaseError
	if _, err := s.Append(ctx, "b2", testRows(4, 2)); !errors.As(err, &pend) {
		t.Fatalf("append during pending intent: %v", err)
	}
	if err := s.Withdraw(ctx, []int{res.RowIDs[0]}); !errors.As(err, &pend) {
		t.Fatalf("withdraw during pending intent: %v", err)
	}
	if err := s.Ack(ctx, 1); !errors.As(err, &pend) {
		t.Fatalf("ack during pending intent: %v", err)
	}
	// Retrying the release completes the journaled intent.
	info, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 {
		t.Fatalf("completed release %+v", info)
	}
	if _, err := s.Append(ctx, "b2", testRows(4, 2)); err != nil {
		t.Fatalf("append after completed release: %v", err)
	}
}

func TestOpenRejectsContradictoryOptions(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openTest(t, dir, testOptions())
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	bad := testOptions()
	bad.Threshold = 0.9
	if _, err := Open(ctx, "tst", filepath.Join(dir, "tst.wal"), bad); err == nil {
		t.Fatal("reopen with a different threshold succeeded")
	}
	bad = testOptions()
	bad.Attrs[2].Name = "Elsewhere"
	if _, err := Open(ctx, "tst", filepath.Join(dir, "tst.wal"), bad); err == nil {
		t.Fatal("reopen with a different schema succeeded")
	}
	if _, err := Open(ctx, "other", filepath.Join(dir, "tst.wal"), testOptions()); err == nil {
		t.Fatal("reopen under a different stream id succeeded")
	}
}

// A threshold no risk can exceed — above 1, or NaN, which compares with
// nothing — is refused when a stream is created, before a journal exists; a
// stream journaled with one before that check existed still reopens.
func TestCreateRefusesThresholdNoRiskExceeds(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "tst.wal")
	for _, threshold := range []float64{7, math.NaN(), math.Inf(1)} {
		opts := testOptions()
		opts.Threshold = threshold
		if _, err := Open(ctx, "tst", path, opts); err == nil {
			t.Fatalf("created a stream with threshold %g", threshold)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) > 0 {
			t.Fatalf("the refused create with threshold %g left %v", threshold, left)
		}
	}

	opts := testOptions()
	opts.Threshold = 7
	w, err := journal.Open(ctx, path, journal.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recCreate, makeCreatePayload("tst", opts)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(ctx, "tst", path, opts)
	if err != nil {
		t.Fatalf("reopening a stream journaled with threshold 7: %v", err)
	}
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStreamRejectsEverything(t *testing.T) {
	ctx := context.Background()
	s := openTest(t, t.TempDir(), testOptions())
	if _, err := s.Append(ctx, "b1", testRows(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.Append(ctx, "b2", testRows(2, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed stream: %v", err)
	}
	if _, err := s.Release(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("release on closed stream: %v", err)
	}
	if err := s.Ack(ctx, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("ack on closed stream: %v", err)
	}
}

// A degraded stream goes back to its index at the first read — here the
// release — that finds the index budget again, and keeps publishing the same
// bytes.
func TestDegradedStreamRestoresOnRelease(t *testing.T) {
	ctx := context.Background()
	const hog = 1 << 20
	opts := testOptions()
	// Room for the window and the index — unless someone hogs it.
	opts.Governor = govern.New("crowded", govern.Limits{MaxBytes: hog + batchBytes(testRows(0, 8)) + 64})
	if err := opts.Governor.ReserveBytes(hog); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, t.TempDir(), opts)
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 8)); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(ctx); st.Mode != "full" {
		t.Fatalf("mode = %q with no room for the index, want full", st.Mode)
	}
	opts.Governor.ReleaseBytes(hog)
	info, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(ctx); st.Mode != "incremental" || !st.RiskCurrent {
		t.Fatalf("after a release with the budget back: %+v, want incremental and current", st)
	}
	if err := s.Ack(ctx, info.Seq); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, "b2", testRows(8, 4)); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(ctx); st.Mode != "incremental" || !st.RiskCurrent {
		t.Fatalf("after the next append: %+v, want the index", st)
	}
	ctl := openTest(t, t.TempDir(), testOptions())
	defer ctl.Close(ctx)
	if _, err := ctl.Append(ctx, "b1", testRows(0, 8)); err != nil {
		t.Fatal(err)
	}
	ctlInfo, err := ctl.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctlInfo.Digest != info.Digest {
		t.Fatal("the restored stream's release differs from the never-degraded control")
	}
}
