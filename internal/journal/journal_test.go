package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type payload struct {
	N    int    `json:"n"`
	Note string `json:"note"`
}

// writeSample builds a journal of n records and returns its path and bytes.
func writeSample(t testing.TB, n int) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "job.journal")
	w, err := CreateWith(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		typ := TypeIter
		if i == 1 {
			typ = TypeStart
		}
		if i == n {
			typ = TypeDone
		}
		if err := w.Append(typ, payload{N: i, Note: "record with a \n newline and ⊥3 null"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// openCollect runs Open over path and returns the writer with the records
// apply was shown.
func openCollect(t testing.TB, path string, cfg Config) (*Writer, []Record, error) {
	t.Helper()
	var recs []Record
	w, err := Open(context.Background(), path, cfg, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	return w, recs, err
}

// checkOpened asserts what Open owes its caller over a file that held data:
// apply saw exactly the scanner's prefix, the writer stands right behind it,
// and the file has shed everything past it.
func checkOpened(t *testing.T, path string, data []byte, scan *Scan, w *Writer, recs []Record) {
	t.Helper()
	defer w.Close()
	if len(recs) != len(scan.Records) || w.Seq() != len(scan.Records) {
		t.Fatalf("Open replayed %d records to seq %d, scanner found %d", len(recs), w.Seq(), len(scan.Records))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data[:scan.Valid]) {
		t.Fatalf("Open left %d bytes, want the %d-byte valid prefix", len(after), scan.Valid)
	}
}

func TestRoundTrip(t *testing.T) {
	path, _ := writeSample(t, 5)
	scan, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn {
		t.Fatal("clean journal reported torn")
	}
	if len(scan.Records) != 5 {
		t.Fatalf("got %d records, want 5", len(scan.Records))
	}
	for i, rec := range scan.Records {
		if rec.Seq != i+1 {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		var p payload
		if err := rec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.N != i+1 {
			t.Fatalf("record %d decoded N=%d", i, p.N)
		}
	}
	if scan.Last().Type != TypeDone {
		t.Fatalf("last record type = %q, want done", scan.Last().Type)
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path, _ := writeSample(t, 1)
	if _, err := CreateWith(path, Config{}); err == nil {
		t.Fatal("CreateWith over an existing journal succeeded")
	}
}

// TestTruncationEveryOffset simulates a crash mid-append at every possible
// byte boundary: the scanner must recover exactly the records whose newline
// made it to disk, never erroring and never inventing a phantom record, and
// Open must hand back a writer standing on exactly that prefix.
func TestTruncationEveryOffset(t *testing.T) {
	path, data := writeSample(t, 6)
	full, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// lineEnd[i] is the offset just past record i+1.
	var lineEnds []int64
	for off, b := range data {
		if b == '\n' {
			lineEnds = append(lineEnds, int64(off)+1)
		}
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		p := filepath.Join(dir, "cut.journal")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		scan, err := ReadFile(p)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantRecords := 0
		for _, end := range lineEnds {
			if int64(cut) >= end {
				wantRecords++
			}
		}
		if len(scan.Records) != wantRecords {
			t.Fatalf("cut at %d: got %d records, want %d", cut, len(scan.Records), wantRecords)
		}
		for i, rec := range scan.Records {
			if rec.Seq != full.Records[i].Seq || !bytes.Equal(rec.Payload, full.Records[i].Payload) {
				t.Fatalf("cut at %d: record %d differs from the original", cut, i)
			}
		}
		if scan.Valid != prefixEnd(lineEnds, wantRecords) {
			t.Fatalf("cut at %d: Valid=%d, want %d", cut, scan.Valid, prefixEnd(lineEnds, wantRecords))
		}
		if scan.Torn != (int64(cut) > scan.Valid) {
			t.Fatalf("cut at %d: Torn=%v inconsistent with Valid=%d", cut, scan.Torn, scan.Valid)
		}
		// Open over the same cut: same prefix, tail gone — and a cut inside
		// the first record is a fresh journal, not an error.
		w, recs, err := openCollect(t, p, Config{})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		checkOpened(t, p, data[:cut], scan, w, recs)
	}
}

func prefixEnd(lineEnds []int64, n int) int64 {
	if n == 0 {
		return 0
	}
	return lineEnds[n-1]
}

// TestBitFlipEveryByte flips one bit in every byte of the journal in turn.
// Whatever the corruption, the scanner must return a prefix of the original
// records — no error, no phantom or reordered decisions — and Open must
// either stand on that prefix or refuse a corrupt head.
func TestBitFlipEveryByte(t *testing.T) {
	path, data := writeSample(t, 4)
	full, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "flip.journal")
	for off := 0; off < len(data); off++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[off] ^= bit
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			scan, err := ReadFile(p)
			if err != nil {
				t.Fatalf("flip at %d: %v", off, err)
			}
			if len(scan.Records) > len(full.Records) {
				t.Fatalf("flip at %d: %d records from a %d-record journal", off, len(scan.Records), len(full.Records))
			}
			for i, rec := range scan.Records {
				orig := full.Records[i]
				if rec.Seq != orig.Seq || rec.Type != orig.Type || !bytes.Equal(rec.Payload, orig.Payload) {
					t.Fatalf("flip at %d: record %d is a phantom: %+v", off, i, rec)
				}
			}
			// Open agrees with the scanner — except when the flip hit the
			// first record: complete lines but no valid head is corruption,
			// refused with the evidence left in place.
			w, recs, err := openCollect(t, p, Config{})
			if len(scan.Records) == 0 {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip at %d: Open over a corrupt head: err = %v, want ErrCorrupt", off, err)
				}
				if after, _ := os.ReadFile(p); !bytes.Equal(after, mut) {
					t.Fatalf("flip at %d: refused Open modified the file", off)
				}
				continue
			}
			if err != nil {
				t.Fatalf("flip at %d: Open: %v", off, err)
			}
			checkOpened(t, p, mut, scan, w, recs)
		}
	}
}

// TestOpenAppendRepairsTornTail crashes mid-record, reopens, and proves the
// repaired journal accepts new appends with contiguous sequence numbers.
func TestOpenAppendRepairsTornTail(t *testing.T) {
	path, data := writeSample(t, 3)
	// Tear the last record in half.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || w.Seq() != 2 {
		t.Fatalf("recovered %d records to seq %d, want 2", len(recs), w.Seq())
	}
	if err := w.Append(TypeDone, payload{N: 99}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	reread, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if reread.Torn {
		t.Fatal("repaired journal still torn")
	}
	if len(reread.Records) != 3 {
		t.Fatalf("got %d records after repair+append, want 3", len(reread.Records))
	}
	last := reread.Last()
	if last.Seq != 3 || last.Type != TypeDone {
		t.Fatalf("appended record = seq %d type %q, want seq 3 done", last.Seq, last.Type)
	}
}

// TestOpenFreshJournal: a missing file, an empty one and half a first record
// are all the same fresh journal — sequence 0, apply never called, the first
// append is record 1 — while a complete line that is no record is refused.
func TestOpenFreshJournal(t *testing.T) {
	_, data := writeSample(t, 1)
	for name, content := range map[string][]byte{"missing": nil, "empty": {}, "half a first record": data[:len(data)/2]} {
		path := filepath.Join(t.TempDir(), "fresh.journal")
		if content != nil {
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, recs, err := openCollect(t, path, Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) != 0 || w.Seq() != 0 {
			t.Fatalf("%s: replayed %d records to seq %d, want a fresh journal", name, len(recs), w.Seq())
		}
		if err := w.Append(TypeStart, payload{N: 1}); err != nil {
			t.Fatalf("%s: first append: %v", name, err)
		}
		w.Close()
		if scan, err := ReadFile(path); err != nil || len(scan.Records) != 1 || scan.Torn {
			t.Fatalf("%s: after the first append: %+v, %v", name, scan, err)
		}
	}
	path := filepath.Join(t.TempDir(), "corrupt.journal")
	garbage := []byte("not a journal\n")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openCollect(t, path, Config{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("complete garbage line: err = %v, want ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, garbage) {
		t.Fatal("refused Open modified the file")
	}
}

// TestSequenceGapStopsScan: a record with a skipped sequence number (e.g. a
// line from another journal spliced in with a valid CRC) must end the prefix.
func TestSequenceGapStopsScan(t *testing.T) {
	path, data := writeSample(t, 4)
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Drop line 3 (seq 3): seq 4 follows seq 2 and must be rejected.
	spliced := bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil)
	if err := os.WriteFile(path, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 2 {
		t.Fatalf("got %d records, want the 2 before the gap", len(scan.Records))
	}
	if !scan.Torn {
		t.Fatal("gap not reported as torn")
	}
	w, recs, err := openCollect(t, path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkOpened(t, path, spliced, scan, w, recs)
}

// FuzzReadPrefix feeds arbitrary bytes to the reader: it must never panic,
// never error on in-memory-valid files, and every accepted record must carry
// contiguous sequence numbers and a checksum that actually matches.
func FuzzReadPrefix(f *testing.F) {
	_, data := writeSample(f, 3)
	f.Add(data)
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		scan, err := ReadFile(p)
		if err != nil {
			t.Fatalf("ReadFile errored on corrupt input: %v", err)
		}
		for i, rec := range scan.Records {
			if rec.Seq != i+1 {
				t.Fatalf("record %d has seq %d", i, rec.Seq)
			}
			if rec.Payload != nil && !json.Valid(rec.Payload) {
				t.Fatalf("record %d has invalid payload", i)
			}
		}
		if scan.Valid > int64(len(data)) {
			t.Fatalf("Valid=%d beyond file size %d", scan.Valid, len(data))
		}
	})
}
