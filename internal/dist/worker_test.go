package dist

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"
	"time"
)

// The HTTP worker surface end to end (in-process listener): scoring,
// idempotent re-delivery, healthz, scoring-error replies.
func TestWorkerHandler(t *testing.T) {
	tr := httpWorker(t, WorkerOptions{})
	defer tr.Close()
	ctx := context.Background()
	if err := tr.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(52))
	rows := testRows(rng, 128)
	for _, spec := range testSpecs() {
		task := Task{Run: "t", Seq: 5, Epoch: 9, Measure: spec, Rows: rows}
		want, err := spec.Score(rows)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := tr.Call(ctx, task)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Seq != 5 || r1.Epoch != 9 || r1.Err != "" {
			t.Fatalf("reply header %+v", r1)
		}
		assertSameBits(t, spec.Kind+"/wire", r1.Values, want)

		// Re-delivery (a duplicated RPC, a retry): identical bits.
		r2, err := tr.Call(ctx, task)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, spec.Kind+"/redelivery", r2.Values, r1.Values)
	}

	// A scoring error rides inside a successful reply.
	bad := Task{Seq: 1, Measure: MeasureSpec{Kind: "re-identification"},
		Rows: []TaskRow{{Pos: 0, ID: 3, Freq: 1, WeightSum: 0}}}
	r, err := tr.Call(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	if want := "risk: row 3 has non-positive group weight 0"; r.Err != want {
		t.Fatalf("reply err %q, want %q", r.Err, want)
	}
}

// Spawn starts a real worker process (the test binary re-exec'd through
// WorkerMain), the handshake yields its address, it serves work, and Kill
// makes it unreachable.
func TestSpawnAndKill(t *testing.T) {
	p, err := Spawn(os.Args[0], []string{"-addr=127.0.0.1:0", "-quiet"},
		[]string{workerEnv + "=1"}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Transport()
	defer tr.Close()
	ctx := context.Background()
	if err := tr.Ping(ctx); err != nil {
		t.Fatalf("spawned worker not reachable: %v", err)
	}
	rows := testRows(rand.New(rand.NewSource(53)), 64)
	spec := testSpecs()[0]
	want, _ := spec.Score(rows)
	r, err := tr.Call(ctx, Task{Seq: 0, Epoch: 1, Measure: spec, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "spawned", r.Values, want)

	if err := p.Kill(); err == nil {
		t.Log("worker exited cleanly after SIGKILL (unexpected but harmless)")
	}
	pingCtx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	if err := tr.Ping(pingCtx); !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("ping after SIGKILL = %v, want ErrWorkerLost", err)
	}
}
