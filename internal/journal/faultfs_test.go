package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"vadasa/internal/faultfs"
)

// An append into a volume below the configured headroom is refused
// before any bytes are written — the record is simply absent, not torn
// — and succeeds once space frees.
func TestAppendHeadroomCheck(t *testing.T) {
	dir := t.TempDir()
	faulty := faultfs.NewFaulty(faultfs.OS)
	path := filepath.Join(dir, "job.journal")
	w, err := CreateWith(path, Config{FS: faulty, DiskHeadroom: 1 << 20})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer w.Close()

	if err := w.Append(TypeStart, map[string]int{"a": 1}); err != nil {
		t.Fatalf("append with space: %v", err)
	}
	faulty.SetFree(100) // below the 1 MiB headroom
	err = w.Append(TypeIter, map[string]int{"a": 2})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append under pressure err = %v, want ENOSPC", err)
	}
	faulty.SetFree(-1) // space freed
	if err := w.Append(TypeIter, map[string]int{"a": 3}); err != nil {
		t.Fatalf("append after pressure cleared: %v", err)
	}

	scan, err := readJournal(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(scan.Records) != 2 || scan.Torn {
		t.Fatalf("got %d records (torn=%v), want 2 clean", len(scan.Records), scan.Torn)
	}
	if scan.Records[1].Seq != 2 {
		t.Fatalf("second record seq = %d, want 2 (no gap from the refused append)", scan.Records[1].Seq)
	}
}

// framesAfter returns the framed lines of records base+1… of a donor journal
// written alongside: what a standby is shipped for a mirror standing at base.
func framesAfter(t *testing.T, base, n int) [][]byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "donor.journal")
	w, err := CreateWith(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= base+n; i++ {
		if err := w.Append(TypeIter, map[string]int{"iter": i}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))[base:]
}

// The append conformance table: whatever makes Append or AppendFrames fail —
// ENOSPC mid-line, a torn write, EIO on the fsync, the observer's veto — the
// file afterwards holds exactly the bytes it held before, the writer stands
// at the same sequence, and with no repair call from anyone the next append
// commits cleanly behind the last committed record.
func TestFailedAppendLeavesNoTrace(t *testing.T) {
	veto := errors.New("no follower")
	faults := []struct {
		name string
		arm  func(f *faultfs.Faulty, vetoing *bool)
		want error
	}{
		{"ENOSPC mid-line", func(f *faultfs.Faulty, _ *bool) { f.LimitWrites(20) }, syscall.ENOSPC},
		{"torn write", func(f *faultfs.Faulty, _ *bool) { f.TearWrite(1) }, syscall.EIO},
		{"fsync EIO", func(f *faultfs.Faulty, _ *bool) { f.FailSync(1) }, syscall.EIO},
		{"observer error", func(_ *faultfs.Faulty, vetoing *bool) { *vetoing = true }, veto},
	}
	ops := []struct {
		name   string
		do     func(w *Writer) error
		frames bool
	}{
		{"Append", func(w *Writer) error { return w.Append(TypeIter, map[string]int{"iter": w.Seq() + 1}) }, false},
		{"AppendFrames", func(w *Writer) error {
			_, err := w.AppendFrames(framesAfter(t, w.Seq(), 2))
			return err
		}, true},
	}
	for _, op := range ops {
		for _, fault := range faults {
			if op.frames && fault.want == veto {
				continue // mirrored frames are not observed again
			}
			t.Run(op.name+"/"+fault.name, func(t *testing.T) {
				faulty := faultfs.NewFaulty(faultfs.OS)
				vetoing := false
				path := filepath.Join(t.TempDir(), "j.journal")
				w, err := CreateWith(path, Config{FS: faulty, OnAppend: func(int, []byte) error {
					if vetoing {
						return veto
					}
					return nil
				}})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				for i := 1; i <= 2; i++ {
					if err := w.Append(TypeIter, map[string]int{"iter": i}); err != nil {
						t.Fatal(err)
					}
				}
				before, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}

				fault.arm(faulty, &vetoing)
				if err := op.do(w); !errors.Is(err, fault.want) {
					t.Fatalf("faulted %s: err = %v, want %v", op.name, err, fault.want)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
					t.Fatalf("failed %s left %d bytes in a %d-byte journal", op.name, len(after), len(before))
				}
				if w.Seq() != 2 {
					t.Fatalf("failed %s moved the writer to seq %d", op.name, w.Seq())
				}

				faulty.Unlimit()
				vetoing = false
				if err := op.do(w); err != nil {
					t.Fatalf("%s after the fault cleared: %v", op.name, err)
				}
				scan, err := readJournal(path)
				if err != nil {
					t.Fatal(err)
				}
				if scan.Torn || len(scan.Records) != w.Seq() || w.Seq() < 3 {
					t.Fatalf("after recovery: %d records, torn=%v, writer at %d", len(scan.Records), scan.Torn, w.Seq())
				}
			})
		}
	}
}

// The acked-write-loss shape: an append fails AND the truncation that should
// erase it fails too. The writer must not report a later append as committed
// while the garbage still precedes it — it refuses, typed, retrying the
// truncation each time — and recovers by itself once truncation works.
func TestWriterRefusesAppendsBehindUnrepairedTail(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	path := filepath.Join(t.TempDir(), "j.journal")
	w, err := CreateWith(path, Config{FS: faulty})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(TypeStart, map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}

	faulty.TearWrite(1)
	faulty.FailTruncate(2) // the failed append's own cleanup, and the next append's retry
	if err := w.Append(TypeIter, map[string]int{"n": 2}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append err = %v, want EIO", err)
	}
	var re *RepairError
	if err := w.Append(TypeIter, map[string]int{"n": 2}); !errors.As(err, &re) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("append behind an unrepaired tail: err = %v, want a *RepairError wrapping EIO", err)
	}
	if scan, _ := readJournal(path); len(scan.Records) != 1 || !scan.Torn || w.Seq() != 1 {
		t.Fatalf("while unrepaired: %d records, torn=%v, writer at %d; want the 1 committed record before the garbage",
			len(scan.Records), scan.Torn, w.Seq())
	}

	// Truncation works again: the very next append heals the tail first.
	if err := w.Append(TypeIter, map[string]int{"n": 2}); err != nil {
		t.Fatalf("append once truncation works: %v", err)
	}
	scan, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 2 || scan.Torn {
		t.Fatalf("final scan: %d records, torn=%v; want 2 clean — the acknowledged record must be readable", len(scan.Records), scan.Torn)
	}
}

// Open over a torn tail it cannot truncate fails, and leaves the file alone.
func TestOpenFailsWhenTailCannotBeTruncated(t *testing.T) {
	path, data := writeSample(t, 3)
	torn := data[:len(data)-5]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	faulty := faultfs.NewFaulty(faultfs.OS)
	faulty.FailTruncate(1)
	var re *RepairError
	if _, _, err := openCollect(t, path, Config{FS: faulty}); !errors.As(err, &re) {
		t.Fatalf("Open err = %v, want a *RepairError", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, torn) {
		t.Fatal("failed Open modified the file")
	}
	w, recs, err := openCollect(t, path, Config{FS: faulty})
	if err != nil || len(recs) != 2 {
		t.Fatalf("Open once truncation works: %d records, %v", len(recs), err)
	}
	w.Close()
}

// AppendFrames accepts exactly what the scanner would: the longest prefix of
// the batch that continues the journal. A replayed frame, a frame past a gap
// and a corrupt frame each end the batch where they stand — nothing of them
// or after them reaches the file, and the writer says which frame it was.
func TestAppendFramesValidates(t *testing.T) {
	flip := func(line []byte) []byte {
		mut := append([]byte(nil), line...)
		mut[len(mut)/2] ^= 0x01
		return mut
	}
	next := framesAfter(t, 2, 4) // records 3, 4, 5, 6
	for _, tc := range []struct {
		name   string
		lines  [][]byte
		accept int
		fails  bool
	}{
		{"all valid", next, 4, false},
		{"nothing to append", nil, 0, false},
		{"duplicate", framesAfter(t, 1, 1), 0, true},
		{"gap", next[1:], 0, true},
		{"corrupt", [][]byte{flip(next[0])}, 0, true},
		{"valid prefix, then corrupt", [][]byte{next[0], next[1], flip(next[2]), next[3]}, 2, true},
		{"valid prefix, then gap", [][]byte{next[0], next[2]}, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "mirror.journal")
			w, err := Open(t.Context(), path, Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if _, err := w.AppendFrames(framesAfter(t, 0, 2)); err != nil {
				t.Fatal(err)
			}
			before, _ := os.ReadFile(path)

			recs, err := w.AppendFrames(tc.lines)
			if (err != nil) != tc.fails {
				t.Fatalf("err = %v, want failure=%v", err, tc.fails)
			}
			if len(recs) != tc.accept || w.Seq() != 2+tc.accept {
				t.Fatalf("accepted %d frames to seq %d, want %d", len(recs), w.Seq(), tc.accept)
			}
			want := before
			for _, line := range tc.lines[:tc.accept] {
				want = append(append(want, line...), '\n')
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, want) {
				t.Fatalf("file holds %d bytes, want the %d of the accepted prefix", len(after), len(want))
			}
		})
	}
}
