package mdb_test

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"vadasa/internal/mdb"
	"vadasa/internal/synth"
)

// liveHeap returns the bytes the heap holds once a collection has run.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// heldBy returns what make allocates and keeps: the live heap after it
// returns, less the live heap before, and its result.
func heldBy[T any](make func() T) (int64, T) {
	before := liveHeap()
	v := make()
	held := liveHeap() - before
	return held, v
}

// The governor's figures for what a cycle holds are what the heap holds, to
// within 10 %, at 10⁵ rows: the working dataset on either entry — a Clone of
// a table the caller keeps, or ParseCSV's table over a body the request has
// already paid for — and the group index risk.Live builds over it.
func TestEstimatedBytesIsTheHeldHeap(t *testing.T) {
	src := synth.Generate(synth.Config{Tuples: 100_000, QIs: 4, Dist: synth.DistU, Seed: 459})
	var buf bytes.Buffer
	if err := mdb.WriteCSV(&buf, src); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	near := func(what string, est, held int64) {
		t.Helper()
		rows := float64(len(src.Rows))
		t.Logf("%s: estimated %.1f B/row, held %.1f B/row", what, float64(est)/rows, float64(held)/rows)
		if math.Abs(float64(est-held)) > 0.1*float64(held) {
			t.Fatalf("%s: estimated %d bytes, the heap holds %d", what, est, held)
		}
	}

	held, clone := heldBy(src.Clone)
	near("Clone", clone.EstimatedBytes(), held)
	held, parsed := heldBy(func() *mdb.Dataset {
		d, err := mdb.ParseCSV(body, "request", src.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
	near("ParseCSV", parsed.EstimatedBytes(), held)
	held, idx := heldBy(func() *mdb.GroupIndex {
		x, err := mdb.BuildIndex(context.Background(), parsed,
			mdb.Grouping{Attrs: parsed.QuasiIdentifiers(), Sensitive: mdb.NoSensitive}, mdb.MaybeMatch)
		if err != nil {
			t.Fatal(err)
		}
		return x
	})
	near("GroupIndex", idx.EstimatedBytes(), held)
	runtime.KeepAlive(src)
	runtime.KeepAlive(body)
	runtime.KeepAlive(clone)
}
