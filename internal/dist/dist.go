// Package dist is the supervised shard-execution layer of the anonymization
// cycle: it fans the per-group risk re-scoring work of an incremental
// assessment out to vadasaw worker processes — spawned children or HTTP
// peers — and owns the robustness contract that makes that safe:
//
//   - heartbeat-based liveness with deadline detection, so a hung worker is
//     detected and routed around rather than stalling the run;
//   - per-task idempotent leases with monotonic epochs, so the reply of a
//     worker presumed dead (and whose task was re-dispatched) is discarded
//     at the fence instead of racing the retry;
//   - bounded retry with exponential backoff and jitter, plus optional
//     hedged re-dispatch for stragglers;
//   - graceful degradation to in-process execution when no worker is
//     healthy — the run completes, the service reports degraded, not down.
//
// The determinism bar is set by the single-process path of PR 5: the merged
// distributed result must be bit-identical to risk.IncrementalAssessor run
// locally, under any injected failure. Three properties carry that:
//
//  1. The unit of remote work is risk.GroupScorer.ScoreGroup — a pure
//     function of a row's maintained group aggregates. Worker and local
//     fallback execute the same compiled code, so the same inputs produce
//     the same bits wherever they run.
//  2. The wire format is JSON, and Go's float64 JSON encoding is the
//     shortest representation that round-trips exactly — a risk value or
//     weight sum survives the trip bit-for-bit.
//  3. Each task owns a disjoint slice of row positions and exactly one
//     reply per task is ever admitted past the epoch fence, so merge order
//     cannot influence the output.
//
// Failures therefore cost latency, never bits.
package dist

import (
	"context"
	"errors"

	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// ErrWorkerLost reports that a worker became unreachable, crashed, timed
// out, or returned a structurally corrupt reply while holding a task lease.
// It is transient by construction — the supervisor retries on another
// worker or degrades to local execution — and is exported so callers can
// classify transport failures distinctly from scoring errors.
var ErrWorkerLost = errors.New("dist: worker lost")

// ErrLeaseExpired reports a reply that arrived after its lease epoch was
// revoked (the worker was presumed dead and the task re-dispatched) or
// after another lease's reply was already admitted. Such replies are
// discarded at the fence; the error surfaces only in logs and stats —
// never as a task outcome, because by definition another attempt owns the
// task by then.
var ErrLeaseExpired = errors.New("dist: lease expired")

// ErrDegraded reports that the supervisor has no healthy workers and was
// configured (RequireWorkers) to refuse in-process fallback. Servers map it
// to 503 with a Retry-After header, distinct from budget-saturation 503s.
var ErrDegraded = errors.New("dist: no healthy workers (degraded)")

// TaskRow is one row's scoring input: its position in the dataset (where
// the result lands), its row ID (error identity only — local and remote
// scoring errors must carry the same message), and the maintained group
// aggregates risk.GroupScorer consumes — every field of mdb.GroupInfo, by
// its name, the ones only an index with a sensitive column fills omitted
// from the wire when zero.
type TaskRow struct {
	Pos       int     `json:"pos"`
	ID        int     `json:"id"`
	Freq      int     `json:"f"`
	WeightSum float64 `json:"w"`
	Distinct  int32   `json:"sd,omitempty"`
	SensCount int32   `json:"sn,omitempty"`
	SensTotal int32   `json:"st,omitempty"`
	SensDist  int64   `json:"sx,omitempty"`
}

// TaskRows puts the index's current infos at the given row positions (nil:
// every row) on the wire.
func TaskRows(idx *mdb.GroupIndex, positions []int) []TaskRow {
	infos, rows := idx.Infos(), idx.Dataset().Rows
	out := make([]TaskRow, len(infos))
	if positions != nil {
		out = out[:len(positions)]
	}
	for i := range out {
		pos := i
		if positions != nil {
			pos = positions[i]
		}
		g := infos[pos]
		out[i] = TaskRow{Pos: pos, ID: rows[pos].ID, Freq: g.Freq, WeightSum: g.WeightSum,
			Distinct: g.Distinct, SensCount: g.SensCount, SensTotal: g.SensTotal, SensDist: g.SensDist}
	}
	return out
}

// info is the inverse of TaskRows, on the other side of the wire.
func (r TaskRow) info() mdb.GroupInfo {
	return mdb.GroupInfo{Freq: r.Freq, WeightSum: r.WeightSum,
		Distinct: r.Distinct, SensCount: r.SensCount, SensTotal: r.SensTotal, SensDist: r.SensDist}
}

// Task is one shard of re-scoring work under one lease epoch. Run names
// the supervisor incarnation (debug identity), Seq the shard, and
// Epoch the lease: the worker echoes both back so the supervisor's fence
// can match the reply to the exact grant it answers.
type Task struct {
	Run     string      `json:"run"`
	Seq     int         `json:"seq"`
	Epoch   uint64      `json:"epoch"`
	Measure MeasureSpec `json:"measure"`
	Rows    []TaskRow   `json:"rows"`
}

// Reply is a worker's answer: Values aligned with Task.Rows, or Err when
// scoring failed deterministically (a data error, not an infrastructure
// one — the supervisor fails the run with it rather than retrying).
type Reply struct {
	Seq    int       `json:"seq"`
	Epoch  uint64    `json:"epoch"`
	Values []float64 `json:"values,omitempty"`
	Err    string    `json:"err,omitempty"`
}

// MeasureSpec is the serializable identity of a shippable risk measure — a
// risk.Spec, on the wire exactly as risk marshals it. Only the fields that
// influence ScoreGroup travel (attribute selections live in the group index
// the supervisor already resolved). SpecFor extracts it from a live measure;
// Score re-instantiates the measure on the other side.
type MeasureSpec risk.Spec

// SpecFor derives the wire spec of a measure, reporting false for measures
// that cannot ship: only measures whose score is a pure function of a row's
// GroupInfo (risk.GroupScorer) do, not SUDA, cluster-wrapped or custom
// assessors.
func SpecFor(m risk.Assessor) (MeasureSpec, bool) {
	if _, ok := m.(risk.GroupScorer); !ok {
		return MeasureSpec{}, false
	}
	sp, ok := risk.SpecOf(m)
	return MeasureSpec(sp), ok
}

// Score evaluates the spec's measure over the rows, one value per row in
// row order. It is the risk layer's one scoring loop (risk.Spec.ScoreGroups)
// fed from wire rows, so values and error identity — the lowest failing
// row's error surfaces — match the local Rescore path. Both the worker
// process and the supervisor's degraded in-process fallback call exactly
// this function: one code path, one set of bits.
func (sp MeasureSpec) Score(rows []TaskRow) ([]float64, error) {
	infos := make([]mdb.GroupInfo, len(rows))
	ids := make([]int, len(rows))
	for i, row := range rows {
		infos[i] = row.info()
		ids[i] = row.ID
	}
	return risk.Spec(sp).ScoreGroups(context.TODO(), infos, ids)
}
