package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestJournal(t *testing.T, dir string, n int) string {
	t.Helper()
	path := filepath.Join(dir, "it.wal")
	w, err := CreateWith(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 1; i <= n; i++ {
		if err := w.Append(TypeIter, map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// An iterator opened at the cursor after record k must yield exactly the
// suffix a full scan yields after k — records, raw lines, final offset and
// torn flag — including over a journal with a torn tail. This is what lets
// the replication shipper read O(new bytes) per shipment.
func TestIteratorFromCursorMatchesFullScanSuffix(t *testing.T) {
	ctx := context.Background()
	path := writeTestJournal(t, t.TempDir(), 25)
	// Append garbage past the valid prefix: a torn line with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"seq\":26,\"ty"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	full, err := Records(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	cursors := []Cursor{full.Cursor()}
	var recs []Record
	for full.Next() {
		start := cursors[len(cursors)-1].Off
		if want := data[start : full.Valid()-1]; !bytes.Equal(full.Line(), want) {
			t.Fatalf("record %d: Line() = %q, file holds %q", full.LastSeq(), full.Line(), want)
		}
		recs = append(recs, full.Record())
		cursors = append(cursors, full.Cursor())
	}
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 25 || full.LastSeq() != 25 || !full.Torn() {
		t.Fatalf("full scan: %d records, LastSeq %d, torn %v", len(recs), full.LastSeq(), full.Torn())
	}

	for k, cur := range cursors {
		it, err := RecordsIn(ctx, nil, path, cur)
		if err != nil {
			t.Fatal(err)
		}
		for i := k; it.Next(); i++ {
			if got := it.Record(); got.Seq != recs[i].Seq || string(got.Payload) != string(recs[i].Payload) {
				t.Fatalf("from cursor %d: record %+v, full scan had %+v", k, got, recs[i])
			}
		}
		if it.Err() != nil || it.LastSeq() != 25 || it.Valid() != full.Valid() || !it.Torn() {
			t.Fatalf("from cursor %d: err %v, LastSeq %d, Valid %d (want %d), torn %v",
				k, it.Err(), it.LastSeq(), it.Valid(), full.Valid(), it.Torn())
		}
		it.Close()
	}

	// A cursor that does not sit on the record it names yields nothing and
	// says so, rather than resynchronizing on some later line.
	for _, stale := range []Cursor{{Off: cursors[3].Off + 1, Next: 4}, {Off: cursors[3].Off, Next: 5}} {
		it, err := RecordsIn(ctx, nil, path, stale)
		if err != nil {
			t.Fatal(err)
		}
		if it.Next() || !it.Torn() || it.Err() != nil {
			t.Fatalf("stale cursor %+v: Next succeeded or torn=%v err=%v", stale, it.Torn(), it.Err())
		}
		it.Close()
	}
}

// Truncating the file underneath a live iterator must end iteration
// cleanly — no panic, no error, no record past the new end — regardless of
// where the truncation lands relative to the iterator's read buffer.
func TestIteratorTruncationMidIteration(t *testing.T) {
	for _, keep := range []int{0, 1, 7} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			path := writeTestJournal(t, t.TempDir(), 40)
			scan, err := readJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			it, err := Records(context.Background(), path)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			// Read a few records, then truncate the file mid-record.
			seen := 0
			for seen < 3 && it.Next() {
				seen++
			}
			var cut int64
			if keep > 0 {
				cut = scan.Valid * int64(keep) / 40
			}
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
			for it.Next() {
				seen++
				if seen > 40 {
					t.Fatal("iterator produced more records than were ever written")
				}
			}
			if err := it.Err(); err != nil {
				t.Fatalf("truncation surfaced as an error: %v", err)
			}
			// Whatever was yielded must be a prefix of the original log.
			if it.LastSeq() != seen {
				t.Fatalf("yielded %d records but LastSeq=%d", seen, it.LastSeq())
			}
		})
	}
}

// A cancelled context stops iteration with the context's error.
func TestIteratorContextCancel(t *testing.T) {
	path := writeTestJournal(t, t.TempDir(), 10)
	ctx, cancel := context.WithCancel(context.Background())
	it, err := Records(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatal("first Next failed")
	}
	cancel()
	if it.Next() {
		t.Fatal("Next succeeded after cancellation")
	}
	if it.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", it.Err())
	}
}

// An apply error aborts Open without touching the file.
func TestOpenApplyErrorLeavesFileUntouched(t *testing.T) {
	path := writeTestJournal(t, t.TempDir(), 5)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("0bad"); err != nil { // a torn tail Open would otherwise drop
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("boom")
	_, err = Open(context.Background(), path, Config{}, func(r Record) error {
		if r.Seq == 3 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("aborted Open modified the journal")
	}
}

// A record the iterator hands out lives in its read buffer until the next
// one, so an apply that keeps a payload sees it overwritten by later lines,
// while ReadFile and OpenAppend hand out records of their own. Lines are
// shorter and longer than the 64 KiB buffer, one of them by far.
func TestRecordLifetime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "life.wal")
	w, err := CreateWith(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 300; i++ {
		n := 900
		switch i {
		case 40:
			n = 150 << 10
		case 41, 200:
			n = 70 << 10
		}
		payload := map[string]any{"i": i, "pad": strings.Repeat(string(rune('a'+i%26)), n)}
		b, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(TypeIter, payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, b)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	it, err := Records(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	for start := int64(0); it.Next(); start = it.Valid() {
		if !bytes.Equal(it.Line(), data[start:it.Valid()-1]) || !bytes.Equal(it.Record().Payload, want[it.LastSeq()-1]) {
			t.Fatalf("record %d: line or payload differs from the file", it.LastSeq())
		}
	}
	if it.Close(); it.Err() != nil || it.LastSeq() != len(want) || it.Torn() {
		t.Fatalf("scan: %d records, torn %v, %v", it.LastSeq(), it.Torn(), it.Err())
	}

	var kept []byte
	w, err = Open(context.Background(), path, Config{}, func(r Record) error {
		if r.Seq == 1 {
			kept = r.Payload
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if bytes.Equal(kept, want[0]) {
		t.Fatal("a payload kept past its record is intact: the iterator did not reuse its buffer")
	}

	scan, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	w, recs, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	for name, got := range map[string][]Record{"ReadFile": scan.Records, "OpenAppend": recs} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
		}
		for i, rec := range got {
			if !bytes.Equal(rec.Payload, want[i]) {
				t.Fatalf("%s: record %d changed after later lines were read", name, i+1)
			}
		}
	}
}
