// Package journal is the durability layer: the write-ahead journal behind
// durable jobs, stream windows, the replication epoch and the standby
// mirrors. A journal is an append-only JSONL file where every record carries
// a CRC-32C checksum and a strictly increasing sequence number, and every
// append is fsync'd before it is acknowledged.
//
// The format is one record per line:
//
//	crc32c-hex8 SPACE json NEWLINE
//
// where the checksum covers exactly the JSON bytes: json.Marshal of a Record,
// which Append builds around one json.Marshal of the payload. Payload
// schemas belong to the caller — the journal frames, checks and persists
// opaque JSON payloads.
// This package is the only code that turns file bytes into records
// (Iterator), repairs a tail (Open, and Writer after a failed append) or
// writes a frame (Append, AppendFrames). Three rules say what survives a
// crash:
//
//  1. Longest valid prefix. A record is committed once its terminating
//     newline is on disk; a reader accepts records up to the first torn,
//     corrupt or out-of-sequence line and treats everything after it as lost
//     (the standard WAL repair rule). Open truncates that tail away.
//  2. A failed append leaves no bytes. When the write, the fsync or the
//     OnAppend observer fails, the Writer truncates the file back to its
//     commit point before returning the error; if even that fails it refuses
//     every further append (*RepairError) until a retried truncation
//     succeeds, so an acknowledged record can never sit behind garbage.
//  3. Zero committed records and no complete line is a fresh journal — a
//     missing file, an empty one, or half of a first record from a crash
//     inside the very first append. Nothing was ever acknowledged from it,
//     so Open hands back a writer at sequence 0 and the caller starts over.
//     A file whose first complete line is not a valid record is corruption,
//     not freshness: Open refuses it and leaves its bytes alone.
package journal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"vadasa/internal/faultfs"
	"vadasa/internal/jsonscan"
	"vadasa/internal/pool"
)

// Type tags a journal record. The journal itself accepts any non-empty type;
// the conventional job-journal types are declared here so writers and readers
// agree on spelling.
type Type string

// Record types of a durable anonymization job.
const (
	// TypeStart is the first record: the job spec and the input digest.
	TypeStart Type = "start"
	// TypeIter commits one anonymization-cycle iteration.
	TypeIter Type = "iter"
	// TypeDone is the terminal record: success, failure or cancellation.
	TypeDone Type = "done"
)

// knownTypes are the record types the repository's journals hold: a job's
// above, a stream's eight and a replica node's epoch. ParseLine returns these
// constants instead of a copy of the type's bytes.
var knownTypes = [...]Type{TypeStart, TypeIter, TypeDone,
	"create", "batch", "withdraw", "anon", "intent", "publish", "ack", "checkpoint", "epoch"}

// recordType returns the type b spells, without allocating when it is one
// of knownTypes.
func recordType(b []byte) Type {
	for _, t := range knownTypes {
		if string(t) == string(b) {
			return t
		}
	}
	return Type(b)
}

// Record is one committed journal entry.
type Record struct {
	// Seq is the 1-based sequence number; the reader rejects gaps.
	Seq int `json:"seq"`
	// Type tags the payload schema.
	Type Type `json:"type"`
	// Time is the wall-clock append time — audit metadata only; recovery
	// never depends on it.
	Time time.Time `json:"time"`
	// Payload is the caller's record body. A parsed record's payload is a
	// slice of its line (Iterator.Line, or the frame given to AppendFrames),
	// so it lives as long as the line does.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Decode unmarshals the record payload into v.
func (r Record) Decode(v any) error {
	if err := json.Unmarshal(r.Payload, v); err != nil {
		return fmt.Errorf("journal: decoding %s record %d: %w", r.Type, r.Seq, err)
	}
	return nil
}

// castagnoli is the CRC-32C table (the polynomial used by ext4, iSCSI and
// most storage formats; better error detection than IEEE for short records).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config parameterizes how a journal touches the filesystem. The zero
// Config selects the real filesystem with no headroom check.
type Config struct {
	// FS is the filesystem the journal writes through; nil means the
	// real one. Tests inject faultfs.Faulty here to pin crash and
	// disk-pressure behaviour deterministically.
	FS faultfs.FS
	// DiskHeadroom, when positive, is the minimum number of free bytes
	// the journal's filesystem must retain before an append is
	// attempted. A violation fails the append with an error matching
	// errors.Is(err, syscall.ENOSPC) — before any bytes are written, so
	// the journal never adds a torn record to an already-full volume.
	DiskHeadroom int64
	// OnAppend, when non-nil, observes every Append: it is called with the
	// record's sequence number and the exact framed line bytes (no trailing
	// newline) after the local fsync succeeds but before the writer
	// advances its commit point. Returning an error fails the Append, and
	// the writer truncates the locally-durable-but-unacknowledged record
	// away like any other failed append — which is how the replication
	// layer implements synchronous commit: a record either reaches a
	// follower or never happened.
	OnAppend func(seq int, line []byte) error
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = faultfs.OS
	}
	return c
}

// Writer appends records to a journal file, fsyncing each one.
type Writer struct {
	f    faultfs.File
	fs   faultfs.FS
	path string
	seq  int
	// off is the commit point: the byte offset just past the last committed
	// record, where a failed append truncates back to.
	off int64
	// dirty: bytes may lie past off (a failed append whose truncation has
	// not succeeded yet). No append proceeds while it is set.
	dirty bool
	// headroom is the pre-append free-space floor (0 = unchecked).
	headroom int64
	// onAppend is Config.OnAppend (nil = no observer).
	onAppend func(seq int, line []byte) error
}

// RepairError is what a Writer returns while bytes of a failed append (or of
// the crash before Open) are still in the file: truncating back to the
// commit point failed, and appending behind them would bury the new record
// where no reader looks. Every append retries the truncation first, so the
// condition clears itself once the filesystem recovers.
type RepairError struct {
	// Err is the truncation, seek or fsync failure.
	Err error
}

func (e *RepairError) Error() string {
	return fmt.Sprintf("journal: no append until the uncommitted tail is truncated away: %v", e.Err)
}

func (e *RepairError) Unwrap() error { return e.Err }

// ErrCorrupt is Open's refusal of a file whose first complete line is not a
// valid record: no committed prefix to recover, yet not a fresh journal
// either (package doc, rule 3).
var ErrCorrupt = errors.New("journal: the first line is complete but not a valid record; refusing to treat a corrupt journal as a fresh one")

// CreateWith creates a fresh journal at path (failing if it already exists)
// and fsyncs the parent directory so the file itself survives a crash.
func CreateWith(path string, cfg Config) (*Writer, error) {
	cfg = cfg.withDefaults()
	f, err := cfg.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	if err := syncDir(cfg.FS, filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, fs: cfg.FS, path: path, headroom: cfg.DiskHeadroom, onAppend: cfg.OnAppend}, nil
}

// Open is the one recover-and-reopen: it streams every committed record of
// the journal at path through apply (nil to skip), truncates a torn tail,
// and returns a writer positioned after the last committed record. A record
// handed to apply is the Iterator's: its Payload is valid until apply
// returns. A fresh journal (package doc, rule 3 — created here if the file
// is missing) comes back at Seq() == 0 without apply having run. An error
// from apply, or a first line that is complete but invalid, aborts the open
// with the file's bytes untouched.
func Open(ctx context.Context, path string, cfg Config, apply func(Record) error) (*Writer, error) {
	cfg = cfg.withDefaults()
	f, err := cfg.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	it := newIterator(ctx, f, Cursor{})
	defer it.release() // f is the writer's
	for it.Next() {
		if apply == nil {
			continue
		}
		if err := apply(it.Record()); err != nil {
			f.Close()
			return nil, err
		}
	}
	w := &Writer{f: f, fs: cfg.FS, path: path, seq: it.LastSeq(), off: it.Valid(),
		headroom: cfg.DiskHeadroom, onAppend: cfg.OnAppend}
	err = it.Err()
	if err == nil && w.seq == 0 {
		if it.badLine {
			err = fmt.Errorf("%w: %s", ErrCorrupt, path)
		} else {
			// The file may be seconds old, or older than a crash that beat
			// its creator to the directory fsync: make the entry durable
			// before the first record is.
			err = syncDir(cfg.FS, filepath.Dir(path))
		}
	}
	if err == nil {
		if it.Torn() {
			err = w.rollback()
		} else {
			_, err = f.Seek(w.off, io.SeekStart)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenAppend is Open on the real filesystem, collecting the replayed records
// for callers small enough to hold them.
func OpenAppend(path string) (*Writer, []Record, error) {
	var recs []Record
	w, err := Open(context.TODO(), path, Config{}, func(r Record) error {
		r.Payload = bytes.Clone(r.Payload)
		recs = append(recs, r)
		return nil
	})
	return w, recs, err
}

// RecoverDir is the one recovery of a directory of journals: the stream
// registry's, the job manager's and a standby's. It globs pattern through
// fsys and sorts the paths. admit runs on each path in that order, one at a
// time, and lays out its slot, or returns nil to skip the path. load runs
// on the slots concurrently, each call writing only its own slot. adopt
// then runs on every slot in path order with the error of its load, or
// ctx's error for a slot the ended context kept from loading. So what a
// recovery registers, logs and returns follows the paths however the loads
// interleave. Only a failed glob is returned.
func RecoverDir[T any](ctx context.Context, fsys faultfs.FS, pattern string,
	admit func(path string) *T, load func(*T) error, adopt func(*T, error)) error {
	paths, err := fsys.Glob(pattern)
	if err != nil {
		return err
	}
	sort.Strings(paths)
	var slots []*T
	for _, path := range paths {
		if slot := admit(path); slot != nil {
			slots = append(slots, slot)
		}
	}
	errs := make([]error, len(slots))
	loaded := make([]bool, len(slots))
	pool.ForEach(ctx, 0, len(slots), func(i int) error {
		errs[i], loaded[i] = load(slots[i]), true
		return nil
	})
	for i, slot := range slots {
		if !loaded[i] {
			errs[i] = ctx.Err()
		}
		adopt(slot, errs[i])
	}
	return nil
}

// rollback truncates whatever a failed append (or the crash before Open)
// left past the commit point and puts the descriptor back there. It is the
// only place a journal shrinks.
func (w *Writer) rollback() error {
	err := w.f.Truncate(w.off)
	if err == nil {
		_, err = w.f.Seek(w.off, io.SeekStart)
	}
	if err == nil {
		err = w.f.Sync()
	}
	w.dirty = err != nil
	if err != nil {
		return &RepairError{err}
	}
	return nil
}

// commit makes buf — whole framed lines ending at sequence last, named what
// in errors — durable with one write and one fsync, lets the OnAppend
// observer veto it when observed is set, and advances the commit point. On
// any failure the file is rolled back to the commit point, so the caller
// sees either a committed append or no trace of one (package doc, rule 2).
func (w *Writer) commit(buf []byte, last int, what string, observed bool) error {
	if w.dirty {
		if err := w.rollback(); err != nil {
			return err
		}
	}
	_, err := w.f.Write(buf)
	if err != nil {
		err = fmt.Errorf("journal: appending %s: %w", what, err)
	} else if err = w.f.Sync(); err != nil {
		err = fmt.Errorf("journal: syncing %s: %w", what, err)
	} else if observed && w.onAppend != nil {
		// The observer runs between local durability and commit-point
		// advance, on the CRC-prefixed line with the newline stripped.
		if err = w.onAppend(last, buf[:len(buf)-1]); err != nil {
			err = fmt.Errorf("journal: %s append observer: %w", what, err)
		}
	}
	if err != nil {
		if rerr := w.rollback(); rerr != nil {
			return fmt.Errorf("%w (and %v)", err, rerr)
		}
		return err
	}
	w.seq = last
	w.off += int64(len(buf))
	return nil
}

// Append marshals the payload, frames it with a sequence number and CRC, and
// writes + fsyncs the record. It returns only after the record is durable;
// when it returns an error the file holds no byte of the record.
// The journal is a confidentiality sink: everything appended is replicated
// to standbys and replayed on recovery, so raw microdata may only enter
// under an explicit, reasoned //conftaint:ok waiver at the append site.
//
//conftaint:sink
func (w *Writer) Append(typ Type, payload any) error {
	if w.headroom > 0 {
		free, err := w.fs.Free(filepath.Dir(w.path))
		if err == nil && free >= 0 && free < w.headroom {
			// Refuse before writing a single byte. Wrapping ENOSPC lets the
			// job layer classify this exactly like a write that hit the
			// real wall.
			return fmt.Errorf("journal: %d bytes free below %d headroom before %s append: %w",
				free, w.headroom, typ, syscall.ENOSPC)
		}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("journal: marshaling %s payload: %w", typ, err)
	}
	return w.commit(frame(w.seq+1, typ, time.Now().UTC(), body), w.seq+1, string(typ), true)
}

// frame returns the line of record seq, newline included: the CRC, a space
// and json.Marshal of Record{seq, typ, t, body}, built around body as it is.
// The bytes are the same because body is json.Marshal output, compact and
// HTML-escaped already, and a time.Time in [0, 9999] marshals as RFC 3339
// with nanoseconds.
func frame(seq int, typ Type, t time.Time, body []byte) []byte {
	b := make([]byte, len("crc32c-8 "), 128+len(typ)+len(body)) // 128 holds the rest of the envelope
	b = strconv.AppendInt(append(b, `{"seq":`...), int64(seq), 10)
	quoted, _ := json.Marshal(string(typ)) // a string always marshals
	b = append(append(b, `,"type":`...), quoted...)
	b = append(t.AppendFormat(append(b, `,"time":"`...), time.RFC3339Nano), '"')
	if len(body) > 0 {
		b = append(append(b, `,"payload":`...), body...)
	}
	b = append(b, '}', '\n')
	const hex = "0123456789abcdef"
	sum := crc32.Checksum(b[9:len(b)-1], castagnoli)
	for i := 7; i >= 0; i, sum = i-1, sum>>4 {
		b[i] = hex[sum&0xf]
	}
	b[8] = ' '
	return b
}

// AppendFrames appends records framed elsewhere — lines exactly as an
// OnAppend observer saw them, which is what a replication standby receives —
// as sequences Seq()+1, Seq()+2, …: one write and one fsync for the lot.
// Every line must pass ParseLine at its position; the first one that does
// not (corrupt, replayed, or past a gap) ends the batch, the lines before it
// still commit, and the error names it. It returns the records that
// committed; like Append, a failed write leaves none of them in the file.
// The OnAppend observer is not consulted: these records were observed where
// they were first appended.
//
//conftaint:sink
func (w *Writer) AppendFrames(lines [][]byte) ([]Record, error) {
	var recs []Record
	var buf []byte
	var bad error
	for i, line := range lines {
		rec, ok := ParseLine(line, w.seq+1+len(recs))
		if !ok {
			bad = fmt.Errorf("journal: frame %d of %d is not a valid record %d", i+1, len(lines), w.seq+1+len(recs))
			break
		}
		recs = append(recs, rec)
		buf = append(append(buf, line...), '\n')
	}
	if len(recs) == 0 {
		return nil, bad
	}
	if err := w.commit(buf, w.seq+len(recs), "frames", false); err != nil {
		return nil, err
	}
	return recs, bad
}

// Seq returns the sequence number of the last committed record (0 if none).
func (w *Writer) Seq() int { return w.seq }

// Close closes the underlying file.
func (w *Writer) Close() error { return w.f.Close() }

// ParseLine validates one framed record — 8 hex digits, a space, JSON whose
// CRC-32C matches and whose sequence number is the expected one — and
// returns the decoded record, its Payload a slice of line. It is the single
// framing rule: the Iterator accepts a line from disk, and AppendFrames a
// line from the wire, only if ParseLine does, so a corrupt or replayed frame
// can never enter a journal. A line laid out as Append writes it is read in
// one pass over its payload; any other layout is decoded by encoding/json,
// so the lines accepted, and what is read from them, are json.Unmarshal's.
func ParseLine(line []byte, wantSeq int) (Record, bool) {
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
	if rec, ok := parseFramed(body, wantSeq); ok {
		return rec, true
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

// parseFramed reads body when it is laid out as frame writes record wantSeq,
// type and time plain strings and no space around the payload. The time
// goes through Time.UnmarshalJSON and the payload through jsonscan one level
// deep, as json.Unmarshal takes them. false means only that the layout
// differs.
func parseFramed(body []byte, wantSeq int) (Record, bool) {
	var rec Record
	var buf [48]byte
	head := append(strconv.AppendInt(append(buf[:0], `{"seq":`...), int64(wantSeq), 10), `,"type":"`...)
	from, to := plainString(body, 0, head)
	if to <= from {
		return Record{}, false
	}
	rec.Seq, rec.Type = wantSeq, recordType(body[from:to])
	if from, to = plainString(body, to, []byte(`","time":"`)); to < 0 || rec.Time.UnmarshalJSON(body[from-1:to+1]) != nil {
		return Record{}, false
	}
	switch rest := body[to+1:]; {
	case string(rest) == "}":
		return rec, true
	case !bytes.HasPrefix(rest, []byte(`,"payload":`)) || body[len(body)-1] != '}':
		return Record{}, false
	}
	s := jsonscan.Scanner{B: body[:len(body)-1], I: to + 1 + len(`,"payload":`), Depth: 1} // inside the record
	from = s.I
	if !s.Value() || s.I != len(s.B) {
		return Record{}, false
	}
	rec.Payload = s.B[from:len(s.B):len(s.B)]
	return rec, true
}

// plainString returns the bounds of the string that follows key, which
// ends in its opening quote, at b[i] when the string is plain (see
// jsonscan.String); to is -1 when it is not.
func plainString(b []byte, i int, key []byte) (from, to int) {
	if !bytes.HasPrefix(b[i:], key) {
		return 0, -1
	}
	from = i + len(key)
	if end, _, plain := jsonscan.String(b, from-1); plain {
		return from, end - 1
	}
	return 0, -1
}

// syncDir fsyncs a directory so a freshly created file's directory entry is
// durable.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: syncing dir: %w", err)
	}
	return nil
}
