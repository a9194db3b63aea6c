package journal

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchDecision and benchIter are shaped like a durable job's iteration
// record (jobs.iterPayload and anon.DecisionRecord): the records a restarted
// daemon reads back from every job journal.
type benchDecision struct {
	Row      int     `json:"row"`
	Attr     string  `json:"attr"`
	Old      string  `json:"old"`
	New      string  `json:"new"`
	Method   string  `json:"method"`
	Risk     float64 `json:"risk"`
	Iter     int     `json:"iter"`
	Affected int     `json:"affected"`
}

type benchIter struct {
	Iteration  int             `json:"iteration"`
	Decisions  []benchDecision `json:"decisions,omitempty"`
	RiskEvalNS int64           `json:"risk_eval_ns"`
	AnonNS     int64           `json:"anon_ns"`
}

// benchBatch is shaped like a stream's append record (stream.batchPayload).
type benchBatch struct {
	Batch string     `json:"batch"`
	Rows  [][]string `json:"rows"`
}

func iterPayload(iter, decisions int) benchIter {
	p := benchIter{Iteration: iter, RiskEvalNS: 1_234_567, AnonNS: 89_012}
	for i := 0; i < decisions; i++ {
		p.Decisions = append(p.Decisions, benchDecision{
			Row: 100_000 + 37*i, Attr: "Sector", Old: fmt.Sprintf("Commerce-%d", i%17),
			New: fmt.Sprintf("⊥%d", iter*decisions+i+1), Method: "local-suppression",
			Risk: 0.0625 + float64(i%9)/16, Iter: iter + 1, Affected: 1 + i%3,
		})
	}
	return p
}

func batchPayload(rows int) benchBatch {
	p := benchBatch{Batch: "b17"}
	for i := 0; i < rows; i++ {
		p.Rows = append(p.Rows, []string{fmt.Sprint(100_000 + i), "Milano", "Commerce", "10-19", "30-40", fmt.Sprint(70 + i%50)})
	}
	return p
}

// BenchmarkJournalScan iterates job-shaped journals — a start record, ten
// iteration records of 150 decisions each and a done record per job — the
// way recovery reads them back, and reports the rate as MB/s.
func BenchmarkJournalScan(b *testing.B) {
	const jobs, iters, decisions = 16, 10, 150
	dir := b.TempDir()
	var paths []string
	var size int64
	for j := 0; j < jobs; j++ {
		path := filepath.Join(dir, fmt.Sprintf("%016x.journal", j))
		w, err := CreateWith(path, Config{})
		if err != nil {
			b.Fatal(err)
		}
		err = w.Append(TypeStart, map[string]string{"job_id": fmt.Sprintf("%016x", j), "digest": "6dd4e405002d0b8b66b0236714eec2c1"})
		for i := 0; i < iters && err == nil; i++ {
			err = w.Append(TypeIter, iterPayload(i, decisions))
		}
		if err == nil {
			err = w.Append(TypeDone, map[string]any{"state": "done", "attempts": 1})
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		paths, size = append(paths, path), size+fi.Size()
	}
	b.SetBytes(size)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, path := range paths {
			it, err := Records(context.Background(), path)
			if err != nil {
				b.Fatal(err)
			}
			recs := 0
			for it.Next() {
				recs++
			}
			it.Close()
			if it.Err() != nil || recs != iters+2 {
				b.Fatalf("%s: %d records, err %v", path, recs, it.Err())
			}
		}
	}
}

var frameSink []byte

// BenchmarkJournalFrame is Append without the file: marshal a payload and
// frame it, for a 50-row stream append and a job's iteration record.
func BenchmarkJournalFrame(b *testing.B) {
	t := time.Date(2026, 10, 17, 14, 37, 24, 902098088, time.UTC)
	for _, bench := range []struct {
		name    string
		typ     Type
		payload any
	}{
		{"stream-append-50-rows", "batch", batchPayload(50)},
		{"jobs-iter", TypeIter, iterPayload(3, 150)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				body, err := json.Marshal(bench.payload)
				if err != nil {
					b.Fatal(err)
				}
				frameSink = frame(n+1, bench.typ, t, body)
			}
			b.SetBytes(int64(len(frameSink)))
		})
	}
}
