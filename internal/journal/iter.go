package journal

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"

	"vadasa/internal/faultfs"
)

// Cursor is a position in a journal file: the byte offset of the record
// carrying sequence Next. The zero Cursor is the start of the file. Committed
// journal bytes are immutable, so a cursor taken from an iterator stays valid
// for as long as the record before it stays committed.
type Cursor struct {
	Off  int64
	Next int
}

// Iterator is the journal's one scanner: it streams committed records one at
// a time without materializing the whole file, applying the longest-valid-
// prefix rule — iteration stops cleanly at the first torn, corrupt or
// out-of-sequence line. Open replays through it, and the replication
// shipper reads frames from a Cursor with it. A stream
// recovery replaying a multi-gigabyte WAL holds one record in memory at a
// time instead of the full decoded slice.
//
// Like bufio.Scanner, it hands out records that live in its read buffer:
// a Record's Payload and a Line are valid until the next call to Next or
// Close, and a caller that keeps one copies it. The 64 KiB buffer is
// pooled, taken at open and given back by Close; only a line longer than
// it is assembled in memory of its own.
//
// The usual loop:
//
//	it, err := journal.Records(ctx, path)
//	defer it.Close()
//	for it.Next() {
//		rec := it.Record()
//		...
//	}
//	if err := it.Err(); err != nil { ... }
type Iterator struct {
	ctx  context.Context
	f    io.ReadCloser
	br   *bufio.Reader // nil once released
	rec  Record
	line []byte
	long []byte // a line longer than br's buffer, assembled
	err  error
	want int   // next expected sequence number
	off  int64 // byte offset just past the last valid record
	torn bool
	// badLine: iteration stopped at a complete (newline-terminated) line
	// that failed validation, as opposed to a partial final line.
	badLine bool
	done    bool
}

// Records opens the journal at path on the real filesystem and returns an
// iterator over its committed records.
func Records(ctx context.Context, path string) (*Iterator, error) {
	return RecordsIn(ctx, nil, path, Cursor{})
}

// RecordsIn is Records through an explicit filesystem (nil means the real
// one), starting at from: the first record read must be the one with
// sequence from.Next at offset from.Off. A cursor that points anywhere else
// yields no records and reports Torn.
func RecordsIn(ctx context.Context, fsys faultfs.FS, path string, from Cursor) (*Iterator, error) {
	cfg := Config{FS: fsys}.withDefaults()
	f, err := cfg.FS.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: opening for iteration: %w", err)
	}
	if from.Off > 0 {
		if _, err := f.Seek(from.Off, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: seeking to record %d: %w", from.Next, err)
		}
	}
	return newIterator(ctx, f, from), nil
}

// readers holds the read buffers of released iterators.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

func newIterator(ctx context.Context, f io.ReadCloser, from Cursor) *Iterator {
	br := readers.Get().(*bufio.Reader)
	br.Reset(f)
	return &Iterator{ctx: ctx, f: f, br: br, want: max(from.Next, 1), off: from.Off}
}

// release ends iteration and gives the read buffer back.
func (it *Iterator) release() {
	it.done = true
	if it.br != nil {
		it.br.Reset(nil)
		readers.Put(it.br)
		it.br = nil
	}
}

// Next advances to the next committed record. It returns false at the end
// of the valid prefix, on a context cancellation, or on an I/O error —
// distinguish the cases with Err and Torn.
func (it *Iterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	if err := it.ctx.Err(); err != nil {
		it.err = err
		it.done = true
		return false
	}
	line, err := it.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		it.long = append(it.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = it.br.ReadSlice('\n')
			it.long = append(it.long, line...)
		}
		line = it.long
	}
	if err == io.EOF {
		// A partial final line is a torn append that never committed — the
		// standard repair rule discards it. This also covers a file
		// truncated underneath a live iterator: reads simply hit the new
		// EOF and iteration ends cleanly at the last whole record seen.
		it.done = true
		it.torn = len(line) > 0
		return false
	}
	if err != nil {
		it.err = fmt.Errorf("journal: iterating: %w", err)
		it.done = true
		return false
	}
	rec, ok := ParseLine(line[:len(line)-1], it.want)
	if !ok {
		it.torn, it.badLine = true, true
		it.done = true
		return false
	}
	it.rec, it.line = rec, line[:len(line)-1]
	it.off += int64(len(line))
	it.want++
	return true
}

// Record returns the record Next advanced to. Valid only after a true Next;
// its Payload is valid until the next Next or Close.
func (it *Iterator) Record() Record { return it.rec }

// Line returns the framed bytes of the current record — CRC prefix and JSON,
// newline stripped: what an OnAppend observer saw and what AppendFrames
// accepts. Valid until the next Next or Close.
func (it *Iterator) Line() []byte { return it.line }

// Err returns the first I/O or context error, nil on a clean end of the
// valid prefix (corruption is not an error; see Torn).
func (it *Iterator) Err() error { return it.err }

// Torn reports whether the file held bytes past the valid prefix.
func (it *Iterator) Torn() bool { return it.done && it.torn }

// Valid is the byte offset just past the last record Next accepted — the
// truncation point for a torn-tail repair.
func (it *Iterator) Valid() int64 { return it.off }

// LastSeq is the sequence number of the last accepted record (0 if none).
func (it *Iterator) LastSeq() int { return it.want - 1 }

// Cursor is the position just past the last accepted record: where an
// iterator opened later resumes.
func (it *Iterator) Cursor() Cursor { return Cursor{Off: it.off, Next: it.want} }

// Close releases the underlying file and the read buffer. Safe to call at
// any point.
func (it *Iterator) Close() error {
	it.release()
	return it.f.Close()
}
