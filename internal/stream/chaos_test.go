package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
)

// kill simulates a process death: the journal file handle is closed without
// a drain checkpoint and the in-memory stream is abandoned. Everything the
// next Open knows comes off the disk.
func kill(s *Stream) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.w.Close()
}

// scanProtocol reads the journal and asserts the release protocol's shape:
// every publish is the immediate successor of its intent, digests agree,
// and no release sequence is published twice.
func scanProtocol(t *testing.T, path string) (publishes map[int]int) {
	t.Helper()
	it, err := journal.Records(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	publishes = make(map[int]int)
	var pending *intentPayload
	for it.Next() {
		rec := it.Record()
		switch rec.Type {
		case recIntent:
			if pending != nil {
				t.Fatalf("seq %d: intent while release %d is still pending", rec.Seq, pending.Release)
			}
			var p intentPayload
			mustUnmarshal(t, rec.Payload, &p)
			pending = &p
		case recPublish:
			var p publishPayload
			mustUnmarshal(t, rec.Payload, &p)
			if pending == nil || pending.Release != p.Release {
				t.Fatalf("seq %d: publish of release %d without immediate intent", rec.Seq, p.Release)
			}
			if pending.Digest != p.Digest {
				t.Fatalf("release %d: publish digest %s != intent digest %s", p.Release, p.Digest, pending.Digest)
			}
			publishes[p.Release]++
			pending = nil
		default:
			if pending != nil {
				t.Fatalf("seq %d: record %q between intent and publish", rec.Seq, rec.Type)
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	for rel, n := range publishes {
		if n != 1 {
			t.Fatalf("release %d published %d times", rel, n)
		}
	}
	return publishes
}

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

// controlRelease runs the same batch through a fault-free stream and
// returns the release bytes — the reference every chaos scenario's
// recovered release must equal byte for byte.
func controlRelease(t *testing.T, rows [][]string) []byte {
	t.Helper()
	ctx := context.Background()
	s := openTest(t, t.TempDir(), testOptions())
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", rows); err != nil {
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
	return b
}

// A process killed between the intent and publish records must, on
// recovery, publish that release exactly once, with exactly the bytes the
// intent promised — whether the crash landed before or after the release
// file reached the disk.
func TestChaosKillBetweenIntentAndPublish(t *testing.T) {
	rows := testRows(0, 8)
	want := controlRelease(t, rows)

	// failAt 2 crashes before the release file is durable; failAt 3
	// crashes after the file but before the publish record.
	for _, failAt := range []int{2, 3} {
		t.Run(fmt.Sprintf("fsync%d", failAt), func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			faulty := faultfs.NewFaulty(faultfs.OS)
			opts := testOptions()
			opts.FS = faulty
			s := openTest(t, dir, opts)
			if _, err := s.Append(ctx, "b1", rows); err != nil {
				t.Fatal(err)
			}
			faulty.FailSync(failAt)
			if _, err := s.Release(ctx); err == nil {
				t.Fatal("release survived the injected fsync failure")
			}
			kill(s)

			s2 := openTest(t, dir, opts)
			defer s2.Close(ctx)
			info := s2.Published()
			if info == nil || info.Seq != 1 {
				t.Fatalf("recovery did not complete the pending release: %+v", info)
			}
			got, err := s2.ReleaseBytes(info)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recovered release differs from the uninterrupted control")
			}
			if pubs := scanProtocol(t, filepath.Join(dir, "tst.wal")); pubs[1] != 1 {
				t.Fatalf("release 1 published %d times", pubs[1])
			}
			// The completed release acks and the stream moves on.
			if err := s2.Ack(ctx, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.Append(ctx, "b2", testRows(8, 2)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// ENOSPC during a batch append must leave no trace: the ack never went out,
// so the batch is simply not in the window — in memory or on disk — and the
// same batch ID retries cleanly once space frees.
func TestChaosENOSPCAppend(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	faulty := faultfs.NewFaulty(faultfs.OS)
	opts := testOptions()
	opts.FS = faulty
	s := openTest(t, dir, opts)

	if _, err := s.Append(ctx, "b1", testRows(0, 4)); err != nil {
		t.Fatal(err)
	}
	faulty.LimitWrites(16) // the next record tears mid-write
	_, err := s.Append(ctx, "b2", testRows(4, 4))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if st := s.Status(ctx); st.Rows != 4 || st.Batches != 1 {
		t.Fatalf("failed append mutated the window: %+v", st)
	}
	faulty.Unlimit()

	// The torn record was repaired in place: a kill + replay shows only b1.
	kill(s)
	s2 := openTest(t, dir, opts)
	defer s2.Close(ctx)
	if st := s2.Status(ctx); st.Rows != 4 || st.Batches != 1 {
		t.Fatalf("replayed window after ENOSPC: %+v", st)
	}
	// The retry (same idempotency key) is a fresh accept, not a duplicate.
	res, err := s2.Append(ctx, "b2", testRows(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duplicate || res.Rows != 8 {
		t.Fatalf("retry result %+v", res)
	}

	want := controlRelease(t, testRows(0, 8))
	info, err := s2.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.ReleaseBytes(info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("release after ENOSPC recovery differs from control")
	}
}

// A torn tail — the shape a crash mid-append leaves — is truncated on
// recovery and the stream resumes bit-identically from the last committed
// record.
func TestChaosTornTail(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "tst.wal")
	s := openTest(t, dir, testOptions())
	if _, err := s.Append(ctx, "b1", testRows(0, 4)); err != nil {
		t.Fatal(err)
	}
	kill(s)

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":3,"type":"batch","pay`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTest(t, dir, testOptions())
	defer s2.Close(ctx)
	if st := s2.Status(ctx); st.Rows != 4 || st.Batches != 1 {
		t.Fatalf("window after torn-tail repair: %+v", st)
	}
	if _, err := s2.Append(ctx, "b2", testRows(4, 4)); err != nil {
		t.Fatal(err)
	}
	info, err := s2.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.ReleaseBytes(info)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, controlRelease(t, testRows(0, 8))) {
		t.Fatal("release after torn-tail repair differs from control")
	}
}

// chaosModel mirrors what an honest client believes after each
// acknowledged operation.
type chaosModel struct {
	rows     map[int][]string // acked row ID → cells
	batches  map[string][]int // acked batch → its row IDs
	released int              // highest acked release seq
}

// Randomized crash/fault soak: a seeded schedule of appends, withdrawals,
// releases, acks, ENOSPC windows, fsync failures and kills. After every
// kill+reopen the replayed window must hold exactly the acknowledged rows,
// and at the end the journal must show each release published exactly once.
func TestChaosRandomized(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			chaosRun(t, seed, rounds)
		})
	}
}

func chaosRun(t *testing.T, seed int64, rounds int) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	faulty := faultfs.NewFaulty(faultfs.OS)
	opts := testOptions()
	opts.FS = faulty
	s := openTest(t, dir, opts)
	model := &chaosModel{rows: make(map[int][]string), batches: make(map[string][]int)}
	nextBatch, nextRow := 0, 0

	checkModel := func() {
		t.Helper()
		st := s.Status(ctx)
		if st.Rows != len(model.rows) {
			t.Fatalf("window holds %d rows, %d were acknowledged", st.Rows, len(model.rows))
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		// ID → position is a binary search: it is only right while IDs
		// ascend strictly with position.
		for pos, r := range s.d.Rows {
			if pos > 0 && r.ID <= s.d.Rows[pos-1].ID {
				t.Fatalf("row IDs not ascending: %d at position %d follows %d", r.ID, pos, s.d.Rows[pos-1].ID)
			}
		}
		for id := range model.rows {
			if _, ok := s.position(id); !ok {
				t.Fatalf("acknowledged row %d lost", id)
			}
		}
	}

	for round := 0; round < rounds; round++ {
		// Maybe arm a fault for the next operation.
		switch rng.Intn(6) {
		case 0:
			faulty.LimitWrites(int64(rng.Intn(200)))
		case 1:
			faulty.FailSync(1 + rng.Intn(3))
		}

		switch op := rng.Intn(10); {
		case op < 5: // append
			name := fmt.Sprintf("batch%d", nextBatch)
			rows := testRows(nextRow, 1+rng.Intn(4))
			res, err := s.Append(ctx, name, rows)
			if err == nil {
				nextBatch++
				nextRow += len(rows)
				for i, id := range res.RowIDs {
					model.rows[id] = rows[i]
					model.batches[name] = append(model.batches[name], id)
				}
			}
		case op < 6: // withdraw one known row
			for id := range model.rows {
				if s.Withdraw(ctx, []int{id}) == nil {
					delete(model.rows, id)
				}
				break
			}
		case op < 8: // release + ack
			info, err := s.Release(ctx)
			if err == nil {
				if b, err := s.ReleaseBytes(info); err != nil || digestBytes(b) != info.Digest {
					t.Fatalf("round %d: release %d bytes unreadable or digest mismatch (%v)", round, info.Seq, err)
				}
				if s.Ack(ctx, info.Seq) == nil {
					model.released = info.Seq
				}
			}
		default: // kill and recover
			kill(s)
			faulty.Unlimit()
			faulty.FailSync(0)
			var err error
			s, err = Open(ctx, "tst", filepath.Join(dir, "tst.wal"), opts)
			if err != nil {
				t.Fatalf("round %d: recovery failed: %v", round, err)
			}
			checkModel()
		}
		faulty.Unlimit()
		faulty.FailSync(0)
	}

	kill(s)
	var err error
	s, err = Open(ctx, "tst", filepath.Join(dir, "tst.wal"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	checkModel()
	pubs := scanProtocol(t, filepath.Join(dir, "tst.wal"))
	if len(pubs) < model.released {
		t.Fatalf("journal shows %d published releases, client acked %d", len(pubs), model.released)
	}
}

// cutsOfLastRecord returns the journal cut at every byte offset of its last
// record: cuts[0] is the clean prefix (the record entirely missing), the
// rest end inside the record, up to one byte short of its newline.
func cutsOfLastRecord(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prefix := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	var cuts [][]byte
	for cut := prefix; cut < len(data); cut++ {
		cuts = append(cuts, data[:cut])
	}
	return cuts
}

// The stream and follower rows of the journal conformance suite: wherever a
// crash cuts the last record, a reopened stream and a follower over the same
// bytes stand exactly where the clean prefix puts them — and the stream
// goes on to accept the batch again.
func TestChaosReopenAtEveryCutOfLastRecord(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "tst.wal")
	s := openTest(t, dir, testOptions())
	if _, err := s.Append(ctx, "b1", testRows(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, "b2", testRows(4, 4)); err != nil {
		t.Fatal(err)
	}
	kill(s)

	var want *Digest
	for i, cut := range cutsOfLastRecord(t, path) {
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		fol, err := OpenFollower(ctx, "tst", path, testOptions())
		if err != nil {
			t.Fatalf("cut %d: follower: %v", i, err)
		}
		fd, err := fol.Digest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fol.Close()
		s := openTest(t, dir, testOptions())
		sd, err := s.Digest(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = sd
			if want.Rows != 4 || want.Seq != 2 {
				t.Fatalf("clean prefix digest %+v, want 4 rows at seq 2", want)
			}
		}
		if !sd.Equal(want) || !fd.Equal(want) {
			t.Fatalf("cut %d: stream %+v / follower %+v, clean prefix %+v", i, sd, fd, want)
		}
		if res, err := s.Append(ctx, "b2", testRows(4, 4)); err != nil || res.Duplicate {
			t.Fatalf("cut %d: re-appending the lost batch: %+v, %v", i, res, err)
		}
		kill(s)
	}
}

// A crash between creating <id>.wal and committing its create record — the
// file empty, or holding half the record — acknowledged nothing, so the id
// must stay usable: the next Open starts the stream over. A first line that
// is complete but not a record is something else entirely, and Open refuses
// to start a fresh window over it.
func TestChaosCrashInFirstAppendDoesNotBrickID(t *testing.T) {
	ctx := context.Background()
	donor := t.TempDir()
	kill(openTest(t, donor, testOptions()))
	create, err := os.ReadFile(filepath.Join(donor, "tst.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{"empty file": {}, "half a create record": create[:len(create)/2]} {
		dir := t.TempDir()
		path := filepath.Join(dir, "tst.wal")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(ctx, "tst", path, testOptions())
		if err != nil {
			t.Fatalf("%s: the id is bricked: %v", name, err)
		}
		if _, err := s.Append(ctx, "b1", testRows(0, 4)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kill(s)
		s = openTest(t, dir, testOptions())
		if st := s.Status(ctx); st.Rows != 4 || st.Batches != 1 {
			t.Fatalf("%s: recovered window %+v", name, st)
		}
		s.Close(ctx)
	}

	path := filepath.Join(t.TempDir(), "tst.wal")
	garbage := []byte("00000000 {\"seq\":1}\n")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ctx, "tst", path, testOptions()); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("corrupt first line: err = %v, want journal.ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, garbage) {
		t.Fatal("refused Open modified the journal")
	}
}
