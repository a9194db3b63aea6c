package jobs

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vadasa/internal/anon"
	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
)

// record is one journal record a fixture writes: a type and its payload.
type record struct {
	typ     journal.Type
	payload any
}

// writeJournal writes the job journal <dir>/<id>.journal holding recs, as
// a manager appends them.
func writeJournal(tb testing.TB, dir, id string, recs ...record) string {
	tb.Helper()
	path := filepath.Join(dir, id+".journal")
	w, err := journal.CreateWith(path, journal.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	for _, r := range recs {
		if err := w.Append(r.typ, r.payload); err != nil {
			tb.Fatal(err)
		}
	}
	return path
}

func startRecord(id, input, digest string, created time.Time) record {
	return record{journal.TypeStart, startPayload{JobID: id, Spec: Spec{Dataset: input}, Digest: digest, Created: created}}
}

// iterRecord is checkpoint i of decisions suppressions.
func iterRecord(i, decisions int) record {
	cp := anon.Checkpoint{Iteration: i, NewRisky: []int{i}}
	for k := 0; k < decisions; k++ {
		cp.Decisions = append(cp.Decisions, anon.Decision{
			RowID: k + 1, Attr: "Area", Old: mdb.Const("Roma"), New: mdb.Null(uint64(i*decisions + k + 1)),
			Method: "local-suppression", Risk: 1, Iteration: i + 1, AffectedRows: 1,
		})
	}
	return record{journal.TypeIter, encodeCheckpoint(cp)}
}

func doneRecord(iterations int) record {
	return record{journal.TypeDone, donePayload{State: StateDone, Attempts: 1, Outcome: &Outcome{Iterations: iterations, Decisions: iterations}}}
}

// inputDigest writes the job input every fixture journal refers to.
func inputDigest(t *testing.T) (path, digest string) {
	t.Helper()
	path = testInput(t)
	digest, _, err := digestFile(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	return path, digest
}

// blockOpenFS holds the first Open of one path until release is closed.
type blockOpenFS struct {
	faultfs.FS
	path    string
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (f *blockOpenFS) Open(name string) (faultfs.File, error) {
	if name == f.path {
		f.once.Do(func() {
			close(f.entered)
			<-f.release
		})
	}
	return f.FS.Open(name)
}

// TestRecoverDigestsInputOutsideLock: checking a resumed job's input is a
// read and a SHA-256 of the whole file, and start-up recovery runs behind a
// daemon already serving /jobs, so it must not hold the lock Get, List and
// Submit take. Here the input's Open blocks until List has answered.
func TestRecoverDigestsInputOutsideLock(t *testing.T) {
	input, digest := inputDigest(t)
	opts := fastOpts(t)
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	writeJournal(t, opts.Dir, "00000000000000d1", startRecord("00000000000000d1", input, digest, created), iterRecord(0, 1), doneRecord(1))
	writeJournal(t, opts.Dir, "00000000000000d2", startRecord("00000000000000d2", input, digest, created), iterRecord(0, 1))
	fsys := &blockOpenFS{FS: faultfs.OS, path: input, entered: make(chan struct{}), release: make(chan struct{})}
	opts.FS = fsys
	m, err := NewManager(&scriptRunner{iterations: 2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	recovered := make(chan error, 1)
	go func() {
		_, err := m.Recover()
		recovered <- err
	}()
	<-fsys.entered
	listed := make(chan int, 1)
	go func() { listed <- len(m.List()) }()
	select {
	case <-listed:
	case <-time.After(5 * time.Second):
		t.Error("List waited for the input digest of a resumed job")
	}
	close(fsys.release)
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "00000000000000d2", StateDone)
}

// recoveryOutcome is what a Recover over the mixed fixture shows.
type recoveryOutcome struct {
	resumed []string
	err     string
	runs    []string // id and checkpoints handed to the runner, in run order
	list    []string // id, state, error and Recovered of every job, List order
}

// recoverMixed recovers the mixed fixture at GOMAXPROCS procs, with one
// worker so that the runs come in queue order, and waits for every resumed
// job to settle.
func recoverMixed(t *testing.T, procs int) recoveryOutcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	input, digest := inputDigest(t)
	opts := fastOpts(t)
	opts.Workers = 1
	dir := opts.Dir
	at := func(i int) time.Time { return time.Date(2026, 1, 1, 0, i, 0, 0, time.UTC) }
	job := func(i int) string { return fmt.Sprintf("00000000000000%02d", i) }
	writeJournal(t, dir, job(1), startRecord(job(1), input, digest, at(1)), iterRecord(0, 3), iterRecord(1, 3), doneRecord(2))
	writeJournal(t, dir, job(2), startRecord(job(2), input, digest, at(2)), iterRecord(0, 3), iterRecord(1, 3))
	writeJournal(t, dir, job(3), record{"create", map[string]string{"stream": "s"}})
	if err := os.WriteFile(filepath.Join(dir, job(4)+".journal"), []byte("nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := writeJournal(t, dir, job(5), startRecord(job(5), input, digest, at(5)), iterRecord(0, 3))
	f, err := os.OpenFile(torn, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`0badf00d {"seq":3,"type":"it`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	writeJournal(t, dir, job(6), startRecord("ffffffffffffffff", input, digest, at(6)))
	writeJournal(t, dir, job(7), startRecord(job(7), input, digest, at(7)), record{"note", map[string]int{"n": 1}})
	writeJournal(t, dir, job(8), startRecord(job(8), input, "0123456789abcdef", at(8)), iterRecord(0, 3))
	writeJournal(t, dir, job(9), startRecord(job(9), input, digest, at(9)))
	writeJournal(t, dir, job(10), startRecord(job(10), input, digest, at(10)), doneRecord(0))
	if err := os.WriteFile(filepath.Join(dir, job(11)+".journal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	var out recoveryOutcome
	var mu sync.Mutex
	m, err := NewManager(RunnerFunc(func(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, cp anon.CheckpointFunc) (*Outcome, error) {
		mu.Lock()
		out.runs = append(out.runs, fmt.Sprintf("%s:%d", id, len(resume)))
		mu.Unlock()
		return &Outcome{Iterations: len(resume)}, nil
	}), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	resumed, err := m.Recover()
	out.resumed = resumed
	if err != nil {
		out.err = err.Error()
	}
	for _, id := range resumed {
		waitState(t, m, id, StateDone)
	}
	for _, j := range m.List() {
		msg := strings.ReplaceAll(j.Error, input, "<input>")
		out.list = append(out.list, fmt.Sprintf("%s %s %q %v", j.ID, j.State, msg, j.Recovered))
	}
	return out
}

// TestRecoverOrderIsPathOrder: journals are loaded at once, yet what Recover
// reports and does — the resumed ids, the order jobs are queued in, the
// joined errors and the jobs it registers — follows the sorted paths,
// whatever the parallelism, over a directory holding every kind of journal:
// done, unterminated, torn, with a foreign or corrupt first record, claiming
// another id, holding a stray record, over a changed input, and empty.
func TestRecoverOrderIsPathOrder(t *testing.T) {
	one := recoverMixed(t, 1)
	wantResumed := []string{"0000000000000002", "0000000000000005", "0000000000000009"}
	if fmt.Sprint(one.resumed) != fmt.Sprint(wantResumed) {
		t.Fatalf("resumed %v, want %v", one.resumed, wantResumed)
	}
	if want := []string{"0000000000000002:2", "0000000000000005:1", "0000000000000009:0"}; fmt.Sprint(one.runs) != fmt.Sprint(want) {
		t.Fatalf("runs %v, want %v", one.runs, want)
	}
	wantErr := "jobs: recovering 0000000000000006.journal: journal 0000000000000006 claims job id ffffffffffffffff\n" +
		`jobs: recovering 0000000000000007.journal: unterminated journal holds a "note" record`
	if one.err != wantErr {
		t.Fatalf("Recover error:\n%s\nwant:\n%s", one.err, wantErr)
	}
	var ids []string
	for _, line := range one.list {
		ids = append(ids, line[:16])
	}
	if want := "[0000000000000010 0000000000000009 0000000000000008 0000000000000005 0000000000000002 0000000000000001]"; fmt.Sprint(ids) != want {
		t.Fatalf("List ids %v, want %s", ids, want)
	}
	if failed := one.list[2]; !strings.Contains(failed, "failed") || !strings.Contains(failed, "changed since submission") {
		t.Fatalf("job over a changed input: %s", failed)
	}
	for i := 0; i < 3; i++ {
		if four := recoverMixed(t, 4); fmt.Sprint(four) != fmt.Sprint(one) {
			t.Fatalf("GOMAXPROCS 4 recovered\n%+v\nGOMAXPROCS 1 recovered\n%+v", four, one)
		}
	}
}

// BenchmarkRecover opens a directory of 120 finished jobs, each a start
// record, 8 checkpoints of 56 decisions and a done record, into a fresh
// manager: what a restarted daemon does before it is ready.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	created := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for n := 0; n < 120; n++ {
		id := fmt.Sprintf("%016x", n)
		recs := []record{startRecord(id, "in.csv", "digest", created)}
		for i := 0; i < 8; i++ {
			recs = append(recs, iterRecord(i, 56))
		}
		writeJournal(b, dir, id, append(recs, doneRecord(8))...)
	}
	runner := &scriptRunner{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewManager(runner, Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		resumed, err := m.Recover()
		if err != nil || len(resumed) != 0 || len(m.List()) != 120 {
			b.Fatalf("recovered %d jobs, resumed %v, %v", len(m.List()), resumed, err)
		}
		m.Close()
	}
}
