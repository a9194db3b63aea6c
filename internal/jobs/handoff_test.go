package jobs

// Tests for the submit-to-worker handoff: the submitter's parse of a job's
// input reaches the job's first attempt only when a worker is idle to take
// it, is never kept by the manager, and is never journaled.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"vadasa/internal/anon"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

var handoffAttrs = []mdb.Attribute{{Name: "I", Category: mdb.Identifier}, {Name: "Area", Category: mdb.QuasiIdentifier}}

// readInput parses a testInput file the way a submitter would.
func readInput(t *testing.T, path string) *mdb.Dataset {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := mdb.ReadCSV(f, "in", handoffAttrs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// waitIdle returns once n of m's workers wait for work, so that the Submit
// which follows meets an idle worker. It reads the goroutine dump instead of
// sleeping: a worker the dump shows parked in its select is already
// registered as a receiver on m.idle.
func waitIdle(t *testing.T, m *Manager, n int) {
	t.Helper()
	frame := fmt.Sprintf("(*Manager).worker(%p", m)
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		idle := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, frame) && !strings.Contains(g, "(*Manager).execute") {
				idle++
			}
		}
		if idle >= n {
			return
		}
	}
	t.Fatalf("fewer than %d workers ever waited for work", n)
}

// inputRunner records the input each attempt is handed and runs on it — or,
// given none, on its own parse of the spool — writing that table as the
// job's output. The first attempt fails transiently after one checkpoint when
// flaky is set; each attempt blocks on hold, when set, after reporting on
// started.
type inputRunner struct {
	mu      sync.Mutex
	inputs  []*mdb.Dataset
	dir     string
	flaky   bool
	started chan struct{}
	hold    chan struct{}
}

func (r *inputRunner) Run(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, checkpoint anon.CheckpointFunc) (*Outcome, error) {
	r.mu.Lock()
	r.inputs = append(r.inputs, spec.Input)
	first := len(r.inputs) == 1
	r.mu.Unlock()
	if r.started != nil {
		r.started <- struct{}{}
	}
	if r.hold != nil {
		<-r.hold
	}
	d := spec.Input
	if d == nil {
		b, err := os.ReadFile(spec.Dataset)
		if err != nil {
			return nil, err
		}
		if d, err = mdb.ReadCSV(bytes.NewReader(b), "in", handoffAttrs); err != nil {
			return nil, err
		}
	}
	if r.flaky && first {
		if err := checkpoint(anon.Checkpoint{Iteration: 0}); err != nil {
			return nil, err
		}
		return nil, risk.MarkTransient(errors.New("assessor hiccup"))
	}
	var out bytes.Buffer
	if err := mdb.WriteCSV(&out, d); err != nil {
		return nil, err
	}
	path := filepath.Join(r.dir, id+".out.csv")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return &Outcome{OutputPath: path, Iterations: len(resume) + 1}, nil
}

// output reads a done job's output file.
func output(t *testing.T, j Job) string {
	t.Helper()
	b, err := os.ReadFile(j.Outcome.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func csvOf(t *testing.T, d *mdb.Dataset) string {
	t.Helper()
	var b strings.Builder
	if err := mdb.WriteCSV(&b, d); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// A job offered to an idle worker runs on the submitter's parse.
func TestIdleWorkerRunsOnSubmittersInput(t *testing.T) {
	r := &inputRunner{dir: t.TempDir()}
	opts := fastOpts(t)
	opts.Workers = 1
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in := testInput(t)
	d := readInput(t, in)
	waitIdle(t, m, 1)
	j, err := m.Submit(Spec{Dataset: in, Input: d})
	if err != nil {
		t.Fatal(err)
	}
	if j.Spec.Input != nil {
		t.Fatal("the job record holds the input")
	}
	got := waitState(t, m, j.ID, StateDone)
	if len(r.inputs) != 1 || r.inputs[0] != d {
		t.Fatalf("runner was handed %v, want the submitted parse %p", r.inputs, d)
	}
	if output(t, got) != csvOf(t, d) {
		t.Fatal("output is not the submitted table")
	}
}

// A job that has to wait for a busy worker is queued without its input, and
// the runner parses the spool.
func TestQueuedJobDropsInput(t *testing.T) {
	r := &inputRunner{dir: t.TempDir(), started: make(chan struct{}, 2), hold: make(chan struct{})}
	opts := fastOpts(t)
	opts.Workers = 1
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in := testInput(t)
	d1, d2 := readInput(t, in), readInput(t, in)
	waitIdle(t, m, 1)
	j1, err := m.Submit(Spec{Dataset: in, Input: d1})
	if err != nil {
		t.Fatal(err)
	}
	<-r.started // the one worker is busy with j1
	j2, err := m.Submit(Spec{Dataset: in, Input: d2})
	if err != nil {
		t.Fatal(err)
	}
	close(r.hold)
	waitState(t, m, j1.ID, StateDone)
	got := waitState(t, m, j2.ID, StateDone)
	if len(r.inputs) != 2 || r.inputs[0] != d1 || r.inputs[1] != nil {
		t.Fatalf("runner was handed %v, want [%p <nil>]", r.inputs, d1)
	}
	if output(t, got) != csvOf(t, d2) {
		t.Fatal("the queued job's output differs from its input")
	}
}

// A retry after a transient failure parses the spool: the first attempt's
// cycle owned the handed-over table. The result is the same.
func TestRetryParsesSpool(t *testing.T) {
	r := &inputRunner{dir: t.TempDir(), flaky: true}
	opts := fastOpts(t)
	opts.Workers = 1
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in := testInput(t)
	d := readInput(t, in)
	waitIdle(t, m, 1)
	j, err := m.Submit(Spec{Dataset: in, Input: d})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateDone)
	if got.Attempts != 2 || len(r.inputs) != 2 || r.inputs[0] != d || r.inputs[1] != nil {
		t.Fatalf("%d attempts were handed %v, want 2: [%p <nil>]", got.Attempts, r.inputs, d)
	}
	if got.Outcome.Iterations != 2 || output(t, got) != csvOf(t, d) {
		t.Fatalf("retried job: %d iterations, output equal %v", got.Outcome.Iterations, output(t, got) == csvOf(t, d))
	}
}

// Once the runner lets go of the handed-over table — as a cycle does after
// cloning it — nothing in the manager keeps it alive while the job runs.
func TestManagerDoesNotPinInput(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	opts := fastOpts(t)
	opts.Workers = 1
	m, err := NewManager(RunnerFunc(func(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, cp anon.CheckpointFunc) (*Outcome, error) {
		if spec.Input == nil {
			return nil, errors.New("no input handed over")
		}
		spec.Input = nil
		entered <- struct{}{}
		<-release
		return &Outcome{}, nil
	}), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in := testInput(t)
	d := readInput(t, in)
	input := weak.Make(d)
	waitIdle(t, m, 1)
	j, err := m.Submit(Spec{Dataset: in, Input: d})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	runtime.GC()
	pinned := input.Value() != nil
	close(release)
	waitState(t, m, j.ID, StateDone)
	if pinned {
		t.Fatal("the input outlived its runner's reference while the job ran")
	}
}

// Input is in-memory only: neither the start record nor a job's JSON carries
// it, and the journaled fields still round-trip.
func TestInputIsNeverJournaled(t *testing.T) {
	opts := fastOpts(t)
	opts.Workers = 1
	m, err := NewManager(&inputRunner{dir: t.TempDir()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in := testInput(t)
	spec := Spec{Dataset: in, Params: map[string][]string{"measure": {"k-anonymity"}, "k": {"3"}}}
	withInput := spec
	withInput.Input = readInput(t, in)
	waitIdle(t, m, 1)
	j, err := m.Submit(withInput)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateDone)

	scan, err := readJournal(nil, filepath.Join(opts.Dir, j.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	status, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"start record": scan.Records[0].Payload, "job JSON": status} {
		var v struct {
			Spec map[string]json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		if len(v.Spec) != 2 || v.Spec["dataset"] == nil || v.Spec["params"] == nil {
			t.Fatalf("%s spec keys = %v, want dataset and params", name, v.Spec)
		}
	}

	plain, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(withInput)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, plain) || !reflect.DeepEqual(back, spec) {
		t.Fatalf("spec JSON %s (without input %s) decodes to %+v, want %+v", b, plain, back, spec)
	}
}
