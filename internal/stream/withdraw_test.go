package stream

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vadasa/internal/faultfs"
	"vadasa/internal/govern"
	"vadasa/internal/journal"
	"vadasa/internal/risk"
)

// withdrawFixture opens a stream holding 32 rows, some of them already
// suppressed by an acked release (so the window carries labelled nulls and
// the index null-bearing rows), and returns it with its row IDs.
func withdrawFixture(t *testing.T, dir string, opts Options) (*Stream, []int) {
	t.Helper()
	ctx := context.Background()
	s := openTest(t, dir, opts)
	var ids []int
	// 23 rows leave the last one without its pair: the gate must suppress.
	// They arrive in eight batches.
	for b := 0; b < 8; b++ {
		start := 3 * b
		res, err := s.Append(ctx, string(rune('a'+b)), testRows(start, min(3, 23-start)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.RowIDs...)
	}
	info, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Suppressions == 0 {
		t.Fatal("fixture release suppressed nothing: the window holds no nulls")
	}
	if err := s.Ack(ctx, info.Seq); err != nil {
		t.Fatal(err)
	}
	res, err := s.Append(ctx, "z", testRows(23, 9))
	if err != nil {
		t.Fatal(err)
	}
	return s, append(ids, res.RowIDs...)
}

// windowState is what a withdrawal must leave identical however it was
// issued: the window and risk digests, then the bytes of the next release.
func windowState(t *testing.T, s *Stream) (window, risks string, release []byte) {
	t.Helper()
	ctx := context.Background()
	dg, err := s.Digest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ReleaseBytes(info)
	if err != nil {
		t.Fatal(err)
	}
	return dg.Window, dg.Risk, b
}

// One withdrawal of k shuffled ids leaves the same window, risk vector and
// release bytes as k single withdrawals, as kill → reopen replay of its
// journal, and as a follower that replayed or was shipped the record — on
// the incremental and on the degraded scoring path.
func TestWithdrawBatchEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []struct {
		name string
		opts func() Options
	}{
		{"incremental", testOptions},
		{"degraded", func() Options {
			o := testOptions()
			o.Assessor = fullOnly{inner: risk.KAnonymity{K: 2}}
			return o
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			batchDir, singleDir := t.TempDir(), t.TempDir()
			batch, ids := withdrawFixture(t, batchDir, mode.opts())
			single, singleIDs := withdrawFixture(t, singleDir, mode.opts())
			defer single.Close(ctx)
			if len(ids) != len(singleIDs) {
				t.Fatal("fixtures differ")
			}
			// A follower attached before the withdrawal sees it as a
			// shipped record; one opened afterwards replays it.
			walPath := filepath.Join(batchDir, "tst.wal")
			shipped, err := OpenFollower(ctx, "tst", walPath, mode.opts())
			if err != nil {
				t.Fatal(err)
			}
			defer shipped.Close()

			victims := append([]int(nil), ids...)
			rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
			victims = victims[:13]
			if err := batch.Withdraw(ctx, victims); err != nil {
				t.Fatal(err)
			}
			for _, id := range victims {
				if err := single.Withdraw(ctx, []int{id}); err != nil {
					t.Fatal(err)
				}
			}

			it, err := journal.RecordsIn(ctx, faultfs.OS, walPath, journal.Cursor{})
			if err != nil {
				t.Fatal(err)
			}
			for it.Next() {
				if rec := it.Record(); rec.Seq > shipped.Seq() {
					if err := shipped.Apply(ctx, rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
			replayed, err := OpenFollower(ctx, "tst", walPath, mode.opts())
			if err != nil {
				t.Fatal(err)
			}
			defer replayed.Close()
			want, err := batch.Digest(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for name, f := range map[string]*Follower{"shipped": shipped, "replayed": replayed} {
				got, err := f.Digest(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s follower digest %+v, primary %+v", name, got, want)
				}
			}

			kill(batch)
			recovered := openTest(t, batchDir, mode.opts())
			defer recovered.Close(ctx)
			if st := recovered.Status(ctx); st.Rows != len(ids)-len(victims) || st.Withdrawn != len(victims) {
				t.Fatalf("recovered status %+v", st)
			}
			window, risks, release := windowState(t, recovered)
			if window != want.Window || risks != want.Risk {
				t.Fatal("replayed withdrawal differs from the live one")
			}
			sWindow, sRisks, sRelease := windowState(t, single)
			if sWindow != window || sRisks != risks {
				t.Fatal("k single withdrawals leave a different window or risk vector than one k-id withdrawal")
			}
			if !bytes.Equal(sRelease, release) {
				t.Fatal("release bytes differ between one k-id withdrawal and k single withdrawals")
			}
		})
	}
}

// Live validation names the offending id with its two error texts and
// leaves the window and the journal untouched.
func TestWithdrawValidation(t *testing.T) {
	ctx := context.Background()
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close(ctx)
	res, err := s.Append(ctx, "b1", testRows(0, 6))
	if err != nil {
		t.Fatal(err)
	}
	ids := res.RowIDs
	seq := s.JournalSeq()
	for _, c := range []struct {
		ids  []int
		want string
	}{
		{[]int{ids[4], 999}, "row 999 is not in the window"},
		{[]int{ids[4], 0}, "row 0 is not in the window"},
		{[]int{ids[4], ids[1], ids[4]}, "withdrawn twice in one call"},
		{nil, "no rows to withdraw"},
	} {
		if err := s.Withdraw(ctx, c.ids); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Withdraw(%v) = %v, want %q", c.ids, err, c.want)
		}
	}
	if st := s.Status(ctx); st.Rows != 6 || st.Withdrawn != 0 || s.JournalSeq() != seq {
		t.Fatalf("rejected withdrawals left a trace: %+v, journal seq %d → %d", st, seq, s.JournalSeq())
	}
	// Descending ids are as good as ascending ones.
	if err := s.Withdraw(ctx, []int{ids[5], ids[2], ids[0]}); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(ctx); st.Rows != 3 || st.Withdrawn != 3 {
		t.Fatalf("status %+v", st)
	}
}

// A journaled withdraw record that repeats an id cannot have come from the
// live path; replay refuses it as an unknown row, and so does one naming a
// row the window never held.
func TestReplayRejectsCorruptWithdraw(t *testing.T) {
	ctx := context.Background()
	for name, bad := range map[string]func(ids []int) []int{
		"duplicate": func(ids []int) []int { return []int{ids[3], ids[1], ids[3]} },
		"unknown":   func(ids []int) []int { return []int{ids[3], 999} },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, testOptions())
			res, err := s.Append(ctx, "b1", testRows(0, 6))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.w.Append(recWithdraw, withdrawPayload{RowIDs: bad(res.RowIDs)}); err != nil {
				t.Fatal(err)
			}
			kill(s)
			_, err = Open(ctx, "tst", filepath.Join(dir, "tst.wal"), testOptions())
			if err == nil || !strings.Contains(err.Error(), "journaled withdrawal of unknown row") {
				t.Fatalf("Open = %v, want the unknown-row replay error", err)
			}
		})
	}
}

// A bounded sliding window under a memory budget must not drift: every
// withdrawal refunds what its rows were charged, so fill → withdraw cycles
// never exhaust a budget sized for one window, the reservation a replay
// rebuilds equals the live one, and Close returns the governor to baseline.
func TestWithdrawRefundsGovernor(t *testing.T) {
	ctx := context.Background()
	fill := testRows(0, 20)
	gov := govern.New("window", govern.Limits{MaxBytes: 2*batchBytes(fill) + 1<<14})
	opts := testOptions()
	opts.Governor = gov
	dir := t.TempDir()
	s := openTest(t, dir, opts)
	var keep []int
	for cycle := 0; cycle < 50; cycle++ {
		res, err := s.Append(ctx, string(rune('A'+cycle)), fill)
		if err != nil {
			t.Fatalf("cycle %d: append refused: %v", cycle, err)
		}
		// Keep two rows per cycle in the window for a while, so refunds are
		// exercised on partial withdrawals too.
		victims := slices.Concat(keep, res.RowIDs[2:])
		keep = res.RowIDs[:2]
		if err := s.Withdraw(ctx, victims); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if st := s.Status(ctx); st.Mode != "incremental" || st.Rows != 2 {
		t.Fatalf("status after the cycles: %+v", st)
	}
	s.mu.Lock()
	live := s.memCharged
	s.mu.Unlock()
	if want := batchBytes(fill[:2]); live != want {
		t.Fatalf("window of 2 rows holds a %d-byte reservation, want %d", live, want)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if used := gov.Used(); used != 0 {
		t.Fatalf("governor holds %d bytes after Close, want 0", used)
	}

	replayGov := govern.New("replay", govern.Limits{MaxBytes: 1 << 20})
	opts.Governor = replayGov
	r := openTest(t, dir, opts)
	r.mu.Lock()
	replayed := r.memCharged
	r.mu.Unlock()
	if replayed != live {
		t.Fatalf("replay rebuilt a %d-byte reservation, the live stream held %d", replayed, live)
	}
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if used := replayGov.Used(); used != 0 {
		t.Fatalf("governor holds %d bytes after Close, want 0", used)
	}
}
