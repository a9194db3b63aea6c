package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vadasa/internal/faultfs"
	"vadasa/internal/jsonscan"
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

// journalScan is a journal read whole, for assertions: its longest valid
// prefix of records, where that prefix ends and whether bytes follow it.
type journalScan struct {
	Records []Record
	Valid   int64
	Torn    bool
}

// Last returns the final committed record, or a zero Record if none.
func (s *journalScan) Last() Record {
	if len(s.Records) == 0 {
		return Record{}
	}
	return s.Records[len(s.Records)-1]
}

// readJournal collects the Iterator over the journal at path.
func readJournal(path string) (*journalScan, error) {
	it, err := Records(context.Background(), path)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	scan := &journalScan{}
	for it.Next() {
		rec := it.Record()
		rec.Payload = bytes.Clone(rec.Payload)
		scan.Records = append(scan.Records, rec)
	}
	scan.Valid, scan.Torn = it.Valid(), it.Torn()
	return scan, it.Err()
}

// checkOpened asserts what Open owes its caller over a file that held data:
// apply saw exactly the scanner's prefix, the writer stands right behind it,
// and the file has shed everything past it.
func checkOpened(t *testing.T, path string, data []byte, scan *journalScan, w *Writer, recs []Record) {
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
	scan, err := readJournal(path)
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
	full, err := readJournal(path)
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
		scan, err := readJournal(p)
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
	full, err := readJournal(path)
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
			scan, err := readJournal(p)
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
	reread, err := readJournal(path)
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
		if scan, err := readJournal(path); err != nil || len(scan.Records) != 1 || scan.Torn {
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
	scan, err := readJournal(path)
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
		scan, err := readJournal(p)
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

// parseLineOracle is ParseLine as it was before it read its own layout:
// the CRC, then json.Unmarshal of the whole record. ParseLine must accept
// exactly the lines it accepts and read the same record from each.
func parseLineOracle(line []byte, wantSeq int) (Record, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, false
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return Record{}, false
	}
	body := line[9:]
	if crc32.Checksum(body, castagnoli) != uint32(sum) {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return Record{}, false
	}
	if rec.Seq != wantSeq || rec.Type == "" {
		return Record{}, false
	}
	return rec, true
}

// framed is body behind its CRC: a line that gets past ParseLine's checksum.
func framed(body []byte) []byte {
	return append([]byte(fmt.Sprintf("%08x ", crc32.Checksum(body, castagnoli))), body...)
}

// checkParseLine holds ParseLine to the oracle on one line: same verdict,
// and on a record the same sequence, type, time — instant, location and
// zone — and payload bytes.
func checkParseLine(t *testing.T, line []byte, wantSeq int) {
	t.Helper()
	got, ok := ParseLine(line, wantSeq)
	want, wantOK := parseLineOracle(line, wantSeq)
	if ok != wantOK {
		t.Fatalf("ParseLine(%q, %d) accepts: %v, the oracle: %v", line, wantSeq, ok, wantOK)
	}
	if !ok {
		return
	}
	gotZone, gotOff := got.Time.Zone()
	wantZone, wantOff := want.Time.Zone()
	if got.Seq != want.Seq || got.Type != want.Type || !got.Time.Equal(want.Time) ||
		got.Time.Location().String() != want.Time.Location().String() || gotZone != wantZone || gotOff != wantOff {
		t.Fatalf("ParseLine(%q) = %d %q %v, the oracle %d %q %v", line, got.Seq, got.Type, got.Time, want.Seq, want.Type, want.Time)
	}
	if !bytes.Equal(got.Payload, want.Payload) || (got.Payload == nil) != (want.Payload == nil) {
		t.Fatalf("ParseLine(%q) payload %q, the oracle %q", line, got.Payload, want.Payload)
	}
}

// parseLineSeeds are record bodies in Append's layout and in every other
// layout encoding/json reads as a record, or nearly does.
var parseLineSeeds = []string{
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24.902098088Z","payload":{"n":1,"note":"x"}}`,
	`{"seq":1,"type":"start","time":"2026-10-17T14:37:24Z"}`,
	`{"seq":1,"type":"ack","time":"2026-10-17T14:37:24.5+02:00","payload":{"release":1}}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24.902098088Z","payload":null}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24.902098088Z","payload":"< ` + "\xff" + `"}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24.902098088Z","payload":[1,-0.5e3,true,false,null,{}]}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":1,"type":"it\"er","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":1,"type":"caf` + "\xc3\xa9" + `","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":1,"type":"` + "\xff" + `","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":1,"type":"","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":1,"type":"iter","payload":1}`,
	`{"seq":1,"type":"iter"}`,
	`{"seq":1,"type":"iter","time":null,"payload":1}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":1,"type":"iter","time":"yesterday","payload":1}`,
	`{"seq":1,"type":"iter","time":"2026-10-17 14:37:24Z","payload":1}`,
	`{"type":"iter","seq":1,"time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":1,"time":"2026-10-17T14:37:24Z","type":"iter","payload":1}`,
	`{"seq":1,"type":"iter","payload":1,"time":"2026-10-17T14:37:24Z"}`,
	`{"SEQ":1,"Type":"iter","TIME":"2026-10-17T14:37:24Z","Payload":1}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1,"payload":2}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1,"seq":2}`,
	`{"seq":1,"type":"iter","type":"done","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1,"extra":[]}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1,}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":{"a":1}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":{"a":1}}}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":{"a":1}} `,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload": {"a":1}}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":{"a":1} }`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":{ "a" : [ 1 , 2 ] }}`,
	` {"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{ "seq" : 1 , "type" : "iter" , "time" : "2026-10-17T14:37:24Z" , "payload" : 1 }`,
	`{"seq":1.0,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":01,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":2,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":12,"type":"iter","time":"2026-10-17T14:37:24Z","payload":1}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":"` + "\x01" + `"}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":01}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":[1,]}`,
	`[1]`, `null`, `{}`, ``,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":` + strings.Repeat("[", jsonscan.MaxDepth-1) + strings.Repeat("]", jsonscan.MaxDepth-1) + `}`,
	`{"seq":1,"type":"iter","time":"2026-10-17T14:37:24Z","payload":` + strings.Repeat("[", jsonscan.MaxDepth) + strings.Repeat("]", jsonscan.MaxDepth) + `}`,
}

// FuzzParseLine holds ParseLine to the oracle, both on the fuzzed bytes as
// a line and on them as a record body behind a matching CRC (the case a
// mutated line almost never reaches).
func FuzzParseLine(f *testing.F) {
	for _, body := range parseLineSeeds {
		f.Add([]byte(body), 1)
		f.Add(framed([]byte(body)), 1)
	}
	_, data := writeSample(f, 3)
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		f.Add(line, i+1)
		bad := append([]byte(nil), line...)
		bad[0] ^= 1 // the CRC no longer matches
		f.Add(bad, i+1)
	}
	f.Fuzz(func(t *testing.T, b []byte, wantSeq int) {
		checkParseLine(t, b, wantSeq)
		checkParseLine(t, framed(b), wantSeq)
	})
}

// marshalsAs is a payload with its own MarshalJSON, spaced and unescaped,
// which json.Marshal compacts and escapes.
type marshalsAs string

func (m marshalsAs) MarshalJSON() ([]byte, error) { return []byte(m), nil }

// TestFrameIsMarshal: frame writes, byte for byte, the line the record's
// json.Marshal framed, for payloads that json.Marshal escapes, compacts or
// spells in more than one way, and for types and times of every spelling.
func TestFrameIsMarshal(t *testing.T) {
	payloads := []any{
		nil,
		payload{N: 7, Note: "<b>&amp;</b>    \x00\x1f \"\\ ⊥3 é"},
		"\xff\xfe invalid UTF-8 \xc3",
		json.RawMessage(" { \"a\" : [ 1 , \"<&>\" , \" \" ] ,\n\t\"b\" : null } "),
		marshalsAs(` {"html":"<&>", "line":"` + " " + `", "n": 1e21 } `),
		[]any{0, -0.0, 1e21, 1e-7, 123456789012345678, math.MaxInt64, math.SmallestNonzeroFloat64, 0.1, -1.5e300},
		map[string]any{"z": 1, "a": []string{"x", "y"}, "<": ">"},
		struct{}{},
		[]byte("bytes become base64"),
	}
	types := []Type{TypeIter, TypeStart, "checkpoint", "with space", "<html>", "a&b", "quo\"te", "back\\slash", "tab\t", "é", "\xff", "del\x7f"}
	times := []time.Time{
		time.Now().UTC(),
		time.Date(2026, 10, 17, 14, 37, 24, 0, time.UTC),
		time.Date(2026, 10, 17, 14, 37, 24, 500_000_000, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.FixedZone("", 5*3600+30*60)),
		time.Date(2026, 3, 1, 0, 0, 0, 1, time.FixedZone("CET", 3600)),
	}
	for i, p := range payloads {
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, typ := range types {
			for _, tm := range times {
				seq := 1 + i*1000
				want, err := json.Marshal(Record{Seq: seq, Type: typ, Time: tm, Payload: body})
				if err != nil {
					t.Fatal(err)
				}
				wantLine := append(framed(want), '\n')
				if got := frame(seq, typ, tm, body); !bytes.Equal(got, wantLine) {
					t.Fatalf("frame(%d, %q, %v, %s)\n = %q\nwant %q", seq, typ, tm, body, got, wantLine)
				}
				checkParseLine(t, wantLine[:len(wantLine)-1], seq)
			}
		}
	}
	want, err := json.Marshal(Record{Seq: 3, Type: TypeDone, Time: times[1]})
	if err != nil {
		t.Fatal(err)
	}
	if got := frame(3, TypeDone, times[1], nil); !bytes.Equal(got, append(framed(want), '\n')) {
		t.Fatalf("frame with no payload = %q, want %q", got, framed(want))
	}
}

// TestParentBuildJournals reads a job journal and a stream WAL written by
// the build before Append framed its own records: ParseLine reads every line
// in Append's layout, the record is the oracle's, and frame writes the line
// back byte for byte.
func TestParentBuildJournals(t *testing.T) {
	for file, types := range map[string]string{
		"job.journal": "start iter iter iter iter done",
		"stream.wal":  "create batch batch withdraw anon anon intent publish ack batch withdraw anon anon intent publish ack checkpoint",
	} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		var seen []string
		for i, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			seq, line := i+1, line[:len(line)-1]
			checkParseLine(t, line, seq)
			rec, ok := parseFramed(line[9:], seq)
			if !ok {
				t.Fatalf("%s: record %d is not in Append's layout: %q", file, seq, line)
			}
			if got := frame(rec.Seq, rec.Type, rec.Time, rec.Payload); !bytes.Equal(got, append(line, '\n')) {
				t.Fatalf("%s: record %d re-framed as\n%q\nthe file holds\n%q", file, seq, got, line)
			}
			seen = append(seen, string(rec.Type))
		}
		if got := strings.Join(seen, " "); got != types {
			t.Fatalf("%s holds %s, want %s", file, got, types)
		}
		scan, err := readJournal(filepath.Join("testdata", file))
		if err != nil || scan.Torn || len(scan.Records) != len(seen) {
			t.Fatalf("%s: ReadFile read %d records (torn %v, err %v), want %d", file, len(scan.Records), scan.Torn, err, len(seen))
		}
	}
}

// RecoverDir admits and adopts in path order whatever order the loads run
// in: a skipped path reaches neither load nor adopt, and a slot the ended
// context kept from loading is adopted with the context's error.
func TestRecoverDirOrder(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"d.wal", "b.wal", "skip.wal", "c.wal", "a.wal", "e.other"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	type slot struct{ name, loaded string }
	run := func(ctx context.Context) string {
		var got []string
		err := RecoverDir(ctx, faultfs.OS, filepath.Join(dir, "*.wal"),
			func(path string) *slot {
				if name := strings.TrimSuffix(filepath.Base(path), ".wal"); name != "skip" {
					return &slot{name: name}
				}
				return nil
			},
			func(s *slot) error {
				s.loaded = "loaded"
				if s.name == "c" {
					return errors.New("load failed")
				}
				return nil
			},
			func(s *slot, err error) { got = append(got, fmt.Sprintf("%s %s %v", s.name, s.loaded, err)) })
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(got, "; ")
	}
	if got, want := run(context.Background()), "a loaded <nil>; b loaded <nil>; c loaded load failed; d loaded <nil>"; got != want {
		t.Fatalf("adopted %q, want %q", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, want := run(ctx), "a  context canceled; b  context canceled; c  context canceled; d  context canceled"; got != want {
		t.Fatalf("adopted under an ended context %q, want %q", got, want)
	}
}

// A scan allocates nothing per record of a known type. The journal is laid
// out as the benchmark's journal probe writes it — a stream batch's worth
// of payload per record — with every known type in turn; a scan of 1 100
// records may allocate what one of 100 does, and no more.
func TestScanAllocatesNothingPerRecord(t *testing.T) {
	payload := struct {
		Batch string `json:"batch"`
	}{strings.Repeat("row,", 50)}
	scan := func(n int) float64 {
		path := filepath.Join(t.TempDir(), "probe.journal")
		w, err := CreateWith(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := w.Append(knownTypes[i%len(knownTypes)], payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			it, err := Records(context.Background(), path)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			seen := 0
			for it.Next() {
				seen++
			}
			if it.Err() != nil || seen != n {
				t.Fatalf("scan saw %d of %d records: %v", seen, n, it.Err())
			}
		})
	}
	few, many := scan(100), scan(1100)
	if perRecord := (many - few) / 1000; perRecord > 0.01 {
		t.Fatalf("%.3f allocations per record (%.0f for 100 records, %.0f for 1 100)", perRecord, few, many)
	}
}
