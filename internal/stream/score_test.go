package stream

import (
	"context"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"vadasa/internal/govern"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// counted wraps a group measure and counts every time it scores: one-shot or
// from the index.
type counted struct {
	risk.IncrementalAssessor
	calls *int
}

func (c counted) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	*c.calls++
	return c.IncrementalAssessor.Assess(d, sem)
}

func (c counted) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	*c.calls++
	return c.IncrementalAssessor.AssessContext(ctx, d, sem)
}

func (c counted) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	*c.calls++
	return c.IncrementalAssessor.Rescore(ctx, idx, dirty, prev)
}

// riskBits is the digest of a risk vector, as Digest takes it.
func riskBits(risks []float64) string {
	rb := make([]byte, 8*len(risks))
	for i, r := range risks {
		binary.BigEndian.PutUint64(rb[i*8:], math.Float64bits(r))
	}
	return digestBytes(rb)
}

// freshRisks is the digest of a fresh k=2 assessment of the window.
func freshRisks(t *testing.T, s *Stream) string {
	t.Helper()
	risks, err := risk.AssessContext(context.Background(), risk.KAnonymity{K: 2}, s.d, s.opts.Semantics)
	if err != nil {
		t.Fatal(err)
	}
	return riskBits(risks)
}

// Appends and withdrawals score nothing; Status, Release and Digest score the
// window, each leaving the vector a fresh assessment of it gives, bit for
// bit — from the index and one-shot alike.
func TestWindowIsScoredWhenRead(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []string{"incremental", "full"} {
		t.Run(mode, func(t *testing.T) {
			calls := 0
			opts := testOptions()
			opts.Assessor = counted{risk.KAnonymity{K: 2}, &calls}
			if mode == "full" {
				opts.Assessor = fullOnly{inner: opts.Assessor}
			}
			s := openTest(t, t.TempDir(), opts)
			defer s.Close(ctx)

			var ids []int
			mutate := func(label string, batches ...int) {
				t.Helper()
				before := calls
				for _, b := range batches {
					res, err := s.Append(ctx, label+string(rune('a'+b)), testRows(3*b, 3))
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, res.RowIDs...)
				}
				victims := []int{ids[1], ids[len(ids)-2]}
				if err := s.Withdraw(ctx, victims); err != nil {
					t.Fatal(err)
				}
				ids = slices.DeleteFunc(ids, func(id int) bool { return slices.Contains(victims, id) })
				if calls != before {
					t.Fatalf("%s: appends and a withdrawal scored the window %d times", label, calls-before)
				}
			}
			current := func(label string) {
				t.Helper()
				if got := s.live.Current(); got == nil || riskBits(got) != freshRisks(t, s) {
					t.Fatalf("%s: the vector left is not a fresh assessment of the window", label)
				}
			}

			mutate("x", 0, 1, 2, 3, 4, 5)
			before := calls
			st := s.Status(ctx)
			if calls == before || !st.RiskCurrent || st.Mode != mode {
				t.Fatalf("status %+v after %d scorings", st, calls-before)
			}
			current("status")

			mutate("y", 6, 7)
			info, err := s.Release(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if info.Suppressions == 0 {
				t.Fatal("the gate suppressed nothing: the test proves less than it says")
			}
			current("release")
			if err := s.Ack(ctx, info.Seq); err != nil {
				t.Fatal(err)
			}

			mutate("z", 8, 9)
			dg, err := s.Digest(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if dg.Risk != freshRisks(t, s) {
				t.Fatal("digest: the risk digest is not a fresh assessment's")
			}
			current("digest")
		})
	}
}

// A governor refusing the index at the release — the window's first read —
// degrades the stream: the release goes out scored one-shot, bit-identical
// to the un-governed control, and every later read retries the index until
// the budget lets it back.
func TestRefusedIndexAtReleaseDegrades(t *testing.T) {
	ctx := context.Background()
	const hog = 1 << 20
	rows := testRows(0, 9)
	calls := 0
	opts := testOptions()
	opts.Assessor = counted{risk.KAnonymity{K: 2}, &calls}
	opts.Governor = govern.New("crowded", govern.Limits{MaxBytes: hog + batchBytes(rows) + 64})
	s := openTest(t, t.TempDir(), opts)
	defer s.Close(ctx)
	if err := opts.Governor.ReserveBytes(hog); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, "b1", rows); err != nil {
		t.Fatal(err)
	}
	if calls != 0 || s.degraded {
		t.Fatalf("the append scored the window (%d calls, degraded %v)", calls, s.degraded)
	}

	info, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !s.degraded || s.live.Incremental() {
		t.Fatal("a release refused its index did not degrade the stream")
	}
	if got := s.live.Current(); got == nil || riskBits(got) != freshRisks(t, s) {
		t.Fatal("the degraded release left a vector a fresh assessment does not give")
	}
	ctl := openTest(t, t.TempDir(), testOptions())
	defer ctl.Close(ctx)
	if _, err := ctl.Append(ctx, "b1", rows); err != nil {
		t.Fatal(err)
	}
	ctlInfo, err := ctl.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctlInfo.Digest != info.Digest || info.Suppressions == 0 {
		t.Fatalf("degraded release %+v, control %+v", info, ctlInfo)
	}

	// Still no room: the status read retries, is refused, and scores one-shot.
	if st := s.Status(ctx); st.Mode != "full" || !st.RiskCurrent {
		t.Fatalf("status with the index still refused: %+v", st)
	}
	opts.Governor.ReleaseBytes(hog)
	dg, err := s.Digest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.degraded || !s.live.Incremental() || s.live.Index() == nil {
		t.Fatal("the digest read with the budget back did not restore the index")
	}
	if dg.Risk != freshRisks(t, s) {
		t.Fatal("the restored index scores the window differently from a fresh assessment")
	}
}

// Bytes a recovering stream regenerates for a journaled intent are held to
// its digest: a window that does not reproduce them publishes nothing.
func TestRegeneratedReleaseMustMatchIntent(t *testing.T) {
	ctx := context.Background()
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 4)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = &intentPayload{Release: 1, Rows: 4, Digest: digestBytes([]byte("other bytes"))}
	if err := s.completePending(ctx); err == nil || !strings.Contains(err.Error(), "contradict the journaled intent") {
		t.Fatalf("completePending = %v, want a digest contradiction", err)
	}
	if s.published != nil || s.relBytes != nil {
		t.Fatal("a contradicted intent was published or its bytes kept")
	}
	s.pending = nil
}
