package anon

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vadasa/internal/govern"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// decisionBytes estimates the heap footprint of a decision batch: the
// struct plus its string payloads.
func decisionBytes(ds []Decision) int64 {
	n := int64(0)
	for _, d := range ds {
		n += 112 + int64(len(d.Attr)+len(d.Method))
	}
	return n
}

// TupleOrder selects which risky tuples are anonymized first (the first
// runtime question of Section 4.4).
type TupleOrder int

// Tuple-ordering heuristics.
const (
	// OrderLessSignificantFirst is the paper's default routing strategy:
	// tuples with lower sampling weight carry less statistical
	// significance and are anonymized first.
	OrderLessSignificantFirst TupleOrder = iota
	// OrderByRiskDesc anonymizes the riskiest tuples first.
	OrderByRiskDesc
	// OrderByID processes tuples in dataset order (no routing strategy).
	OrderByID
)

// String implements fmt.Stringer.
func (o TupleOrder) String() string {
	switch o {
	case OrderLessSignificantFirst:
		return "less-significant-first"
	case OrderByRiskDesc:
		return "most-risky-first"
	case OrderByID:
		return "dataset-order"
	default:
		return fmt.Sprintf("TupleOrder(%d)", int(o))
	}
}

// Config parameterizes the anonymization cycle.
type Config struct {
	// Assessor estimates per-tuple disclosure risk (plug-in #risk).
	Assessor risk.Assessor
	// Threshold is T of Algorithm 2: tuples with risk > T are anonymized.
	Threshold float64
	// Anonymizer applies the per-tuple steps (plug-in #anonymize).
	Anonymizer Anonymizer
	// Semantics selects the labelled-null comparison semantics; the
	// maybe-match default is what makes suppression effective.
	Semantics mdb.Semantics
	// Order is the risky-tuple processing order.
	Order TupleOrder
	// MaxIterations caps the cycle (default 10000).
	MaxIterations int
	// BatchFraction bounds how many of the currently risky tuples are
	// anonymized before risk is re-evaluated, as a fraction of the risky
	// set (default 0.25, minimum batch 32). Smaller batches approximate
	// the paper's incremental monotonic-aggregation semantics more
	// closely: a suppression can rescue similar risky tuples, so fewer
	// values are removed overall — at the price of more risk evaluations.
	// Set to 1 to anonymize every risky tuple each iteration.
	BatchFraction float64
	// Checkpoint, when set, receives one Checkpoint after every committed
	// iteration — the write-ahead hook a durable job manager journals
	// through. An error from the hook aborts the cycle: if progress cannot
	// be made durable, continuing would let a crash silently lose it.
	Checkpoint CheckpointFunc
}

// Checkpoint is the durable summary of one committed cycle iteration: enough
// state to replay the iteration onto a fresh clone of the input (the
// decisions, with their injected null ids) and to rebuild the loop's control
// state (which rows are exhausted, which were ever risky). Row references in
// Exhausted and NewRisky are indexes into Dataset.Rows — stable because the
// cycle never reorders rows; Decisions reference rows by their artificial ID.
type Checkpoint struct {
	// Iteration is the 0-based loop index this checkpoint commits.
	Iteration int
	// Decisions lists the anonymization steps applied this iteration.
	Decisions []Decision
	// Exhausted lists rows newly marked unanonymizable this iteration.
	Exhausted []int
	// NewRisky lists rows first observed over threshold this iteration.
	NewRisky []int
	// RiskEval and Anon split this iteration's elapsed time.
	RiskEval, Anon time.Duration
}

// CheckpointFunc commits one iteration to durable storage. It must return
// only after the checkpoint is persistent; a returned error aborts the cycle.
type CheckpointFunc func(cp Checkpoint) error

// Result is the outcome of an anonymization cycle.
type Result struct {
	// Dataset is the anonymized copy; the input dataset is not modified.
	Dataset *mdb.Dataset
	// Decisions is the full, ordered explanation log.
	Decisions []Decision
	// Iterations is the number of risk-evaluate/anonymize rounds run.
	Iterations int
	// InitialRisky and EverRisky count the tuples over threshold at the
	// start and at any point of the cycle.
	InitialRisky, EverRisky int
	// Residual lists the row IDs still over threshold when the cycle
	// stopped because no anonymization step could help them further.
	Residual []int
	// NullsInjected counts the labelled nulls added by the cycle —
	// the metric of Figures 7a, 7c and 7d.
	NullsInjected int
	// InfoLoss is the information-loss estimate of Section 5.1: injected
	// nulls over the maximum number of quasi-identifier values of risky
	// tuples that could theoretically be removed.
	InfoLoss float64
	// RiskEvalTime and AnonTime split the elapsed time between the risk
	// estimation component and the anonymization steps (Figure 7e's
	// dotted vs solid lines).
	RiskEvalTime, AnonTime time.Duration
}

// Run executes the anonymization cycle of Algorithm 2 on a copy of d:
// iteratively estimate the disclosure risk of every tuple and apply one
// minimal anonymization step to each tuple over threshold, until every tuple
// passes (Tuple_A) or no step can improve the stragglers.
func Run(d *mdb.Dataset, cfg Config) (*Result, error) {
	return RunContext(context.Background(), d, cfg)
}

// RunContext is Run honouring ctx: the cycle polls the context at every
// iteration boundary and between per-tuple anonymization steps, and risk
// assessment is dispatched through risk.AssessContext so cancellable
// measures stop mid-evaluation too. The returned error wraps ctx.Err() for
// errors.Is against context.Canceled / context.DeadlineExceeded.
func RunContext(ctx context.Context, d *mdb.Dataset, cfg Config) (*Result, error) {
	return ResumeContext(ctx, d, cfg, nil)
}

// ResumeContext continues an interrupted cycle from its journaled
// checkpoints: the recorded decisions are replayed onto a fresh clone of the
// input dataset (no assessor or anonymizer work — the outcomes are already
// known), the loop's control state is rebuilt, and the cycle proceeds from
// the first uncommitted iteration. Because the cycle is deterministic for a
// given configuration, a run killed mid-cycle and resumed this way produces
// a dataset and decision log identical to an uninterrupted run.
//
// An empty checkpoint slice makes ResumeContext identical to RunContext.
func ResumeContext(ctx context.Context, d *mdb.Dataset, cfg Config, checkpoints []Checkpoint) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Assessor == nil {
		return nil, fmt.Errorf("anon: Config.Assessor is required")
	}
	if cfg.Anonymizer == nil {
		return nil, fmt.Errorf("anon: Config.Anonymizer is required")
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("anon: threshold %g outside [0,1]", cfg.Threshold)
	}
	maxIter := cfg.MaxIterations
	if maxIter == 0 {
		maxIter = 10_000
	}

	// When ctx carries a resource governor, the working clone and the
	// accumulated decision/checkpoint buffers are charged against the
	// memory budget; the whole footprint is refunded when the cycle
	// returns. A failed reservation surfaces as the governor's typed
	// error, which the job layer treats as back-pressure, not failure.
	gov := govern.From(ctx)
	var charged int64
	defer func() { gov.Release(govern.Memory, charged) }()
	charge := func(n int64, what string) error {
		if err := gov.Reserve(govern.Memory, n); err != nil {
			return fmt.Errorf("anon: %s: %w", what, err)
		}
		charged += n
		return nil
	}

	work := d.Clone()
	if err := charge(work.EstimatedBytes(), "cloning working dataset"); err != nil {
		return nil, err
	}
	qi := work.QuasiIdentifiers()
	if len(qi) == 0 {
		return nil, fmt.Errorf("anon: dataset %q has no quasi-identifiers", d.Name)
	}
	res := &Result{Dataset: work}
	nullsBefore := work.NullCount()
	exhausted := make(map[int]bool)
	everRisky := make(map[int]bool)

	// One ID → position map serves both checkpoint replay and the
	// incremental index maintenance; positions are stable because the
	// cycle never reorders rows.
	rowPos := make(map[int]int, len(work.Rows))
	for i, r := range work.Rows {
		rowPos[r.ID] = i
	}

	startIter := 0
	for _, cp := range checkpoints {
		if cp.Iteration != startIter {
			return nil, fmt.Errorf("anon: resume checkpoint out of order: got iteration %d, want %d", cp.Iteration, startIter)
		}
		if err := replayCheckpoint(work, cp, res, exhausted, everRisky, rowPos); err != nil {
			return nil, err
		}
		startIter++
	}
	if startIter >= maxIter {
		return nil, fmt.Errorf("anon: cycle did not converge within %d iterations", maxIter)
	}

	// The view keeps the risk vector current across iterations: measures
	// with an incremental path are re-scored from a maintained group index,
	// the rest (SUDA, cluster) reassessed in full — bit-identical either way.
	view := risk.NewLive(cfg.Assessor, work, cfg.Semantics, gov)
	defer view.Close()

	var risks []float64
	actx := NewContext(work, qi)
	for iter := startIter; ; iter++ {
		if iter >= maxIter {
			return nil, fmt.Errorf("anon: cycle did not converge within %d iterations", maxIter)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("anon: cycle cancelled at iteration %d: %w", iter, err)
		}
		t0 := time.Now()
		var err error
		risks, err = view.Risks(ctx)
		evalTime := time.Since(t0)
		res.RiskEvalTime += evalTime
		if err != nil {
			return nil, fmt.Errorf("anon: risk assessment: %w", err)
		}

		var risky, newRisky []int
		for row, r := range risks {
			if r > cfg.Threshold {
				if !everRisky[row] {
					everRisky[row] = true
					newRisky = append(newRisky, row)
					if iter == 0 {
						res.InitialRisky++
					}
				}
				if !exhausted[row] {
					risky = append(risky, row)
				}
			}
		}
		if len(risky) == 0 {
			res.Iterations = iter
			break
		}
		cfg.Order.Sort(work, risks, risky)
		frac := cfg.BatchFraction
		if frac <= 0 {
			frac = 0.25
		}
		if frac < 1 {
			limit := int(frac * float64(len(risky)))
			if limit < 32 {
				limit = 32
			}
			if limit < len(risky) {
				risky = risky[:limit]
			}
		}

		t0 = time.Now()
		var iterDecisions []Decision
		var iterExhausted []int
		for _, row := range risky {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("anon: cycle cancelled at iteration %d: %w", iter, err)
			}
			decisions, ok := cfg.Anonymizer.Step(actx, row)
			if !ok {
				// Nothing more can be done for this tuple; it is
				// excluded from future batches and ends up in the
				// residual report. Other risky tuples still get their
				// turn in later iterations.
				exhausted[row] = true
				iterExhausted = append(iterExhausted, row)
				continue
			}
			for i := range decisions {
				decisions[i].Iteration = iter + 1
				decisions[i].Risk = risks[row]
			}
			actx.Applied(decisions)
			iterDecisions = append(iterDecisions, decisions...)
		}
		actx = actx.Next()
		if err := charge(decisionBytes(iterDecisions)+int64(len(iterExhausted)+len(newRisky))*8,
			fmt.Sprintf("iteration %d checkpoint buffers", iter)); err != nil {
			return nil, err
		}
		res.Decisions = append(res.Decisions, iterDecisions...)
		if err := observe(view, work, rowPos, iterDecisions); err != nil {
			return nil, err
		}
		anonTime := time.Since(t0)
		res.AnonTime += anonTime

		if cfg.Checkpoint != nil {
			cp := Checkpoint{
				Iteration: iter,
				Decisions: iterDecisions,
				Exhausted: iterExhausted,
				NewRisky:  newRisky,
				RiskEval:  evalTime,
				Anon:      anonTime,
			}
			if err := cfg.Checkpoint(cp); err != nil {
				return nil, fmt.Errorf("anon: committing iteration %d checkpoint: %w", iter, err)
			}
		}
	}

	// Residual report. The loop only exits right after an assessment that
	// found no actionable risky tuples, and nothing mutates the dataset
	// between that assessment and here — so the last risk vector is still
	// current and a final re-assessment would only repeat it (on a clean
	// run it would double the total risk-evaluation cost).
	for row, r := range risks {
		if r > cfg.Threshold {
			res.Residual = append(res.Residual, work.Rows[row].ID)
		}
	}

	res.EverRisky = len(everRisky)
	res.NullsInjected = work.NullCount() - nullsBefore
	if denom := res.EverRisky * len(qi); denom > 0 {
		res.InfoLoss = float64(res.NullsInjected) / float64(denom)
	}
	return res, nil
}

// replayCheckpoint applies one journaled iteration to the working dataset:
// decisions are re-applied verbatim (labelled-null ids included, with the
// allocator advanced past them so later fresh nulls cannot collide) and the
// control-state deltas are folded in. rowPos maps row IDs to positions —
// built once per resume, so a replay costs O(decisions), not
// O(rows × decisions).
func replayCheckpoint(work *mdb.Dataset, cp Checkpoint, res *Result, exhausted, everRisky map[int]bool, rowPos map[int]int) error {
	for _, dec := range cp.Decisions {
		rowIdx, ok := rowPos[dec.RowID]
		if !ok {
			return fmt.Errorf("anon: replay iteration %d: no tuple with id %d", cp.Iteration, dec.RowID)
		}
		attr := work.AttrIndex(dec.Attr)
		if attr < 0 {
			return fmt.Errorf("anon: replay iteration %d: no attribute %q", cp.Iteration, dec.Attr)
		}
		switch dec.Method {
		case "local-suppression":
			if !dec.New.IsNull() {
				return fmt.Errorf("anon: replay iteration %d: suppression of tuple %d recorded a non-null value", cp.Iteration, dec.RowID)
			}
			work.Rows[rowIdx].Values[attr] = dec.New
			work.Nulls.Observe(dec.New.NullID())
		case "global-recoding":
			if dec.AffectedRows <= 1 {
				// Either per-tuple mode or a global roll-up whose value
				// only the triggering row carried — same single write.
				work.Rows[rowIdx].Values[attr] = dec.New
			} else {
				n := 0
				for _, r := range work.Rows {
					if r.Values[attr] == dec.Old {
						r.Values[attr] = dec.New
						n++
					}
				}
				if n != dec.AffectedRows {
					return fmt.Errorf("anon: replay iteration %d: recoding %s %s touched %d rows, journal says %d — journal does not match this dataset",
						cp.Iteration, dec.Attr, dec.Old.Redacted(), n, dec.AffectedRows)
				}
			}
		default:
			return fmt.Errorf("anon: replay iteration %d: unknown method %q", cp.Iteration, dec.Method)
		}
	}
	res.Decisions = append(res.Decisions, cp.Decisions...)
	for _, row := range cp.Exhausted {
		if row < 0 || row >= len(work.Rows) {
			return fmt.Errorf("anon: replay iteration %d: exhausted row %d out of range", cp.Iteration, row)
		}
		exhausted[row] = true
	}
	for _, row := range cp.NewRisky {
		if row < 0 || row >= len(work.Rows) {
			return fmt.Errorf("anon: replay iteration %d: risky row %d out of range", cp.Iteration, row)
		}
		everRisky[row] = true
	}
	if cp.Iteration == 0 {
		res.InitialRisky = len(cp.NewRisky)
	}
	res.RiskEvalTime += cp.RiskEval
	res.AnonTime += cp.Anon
	return nil
}

// Sort routes the risky tuples (row positions into d, scored by risks) into
// the order they are anonymized in: sampling weight ascending, risk
// descending, or dataset order, each with the tuple ID as the deterministic
// tiebreak. The cycle and the stream's release gate route through it.
func (o TupleOrder) Sort(d *mdb.Dataset, risks []float64, risky []int) {
	switch o {
	case OrderLessSignificantFirst:
		sort.SliceStable(risky, func(i, j int) bool {
			a, b := d.Rows[risky[i]], d.Rows[risky[j]]
			if a.Weight != b.Weight {
				return a.Weight < b.Weight
			}
			return a.ID < b.ID
		})
	case OrderByRiskDesc:
		sort.SliceStable(risky, func(i, j int) bool {
			if risks[risky[i]] != risks[risky[j]] {
				return risks[risky[i]] > risks[risky[j]]
			}
			return d.Rows[risky[i]].ID < d.Rows[risky[j]].ID
		})
	case OrderByID:
		sort.SliceStable(risky, func(i, j int) bool {
			return d.Rows[risky[i]].ID < d.Rows[risky[j]].ID
		})
	}
}

// ExplainTuple returns the decisions that touched one tuple, in order — the
// per-respondent view an auditor asks for ("why was company X's sector
// removed?").
func (r *Result) ExplainTuple(rowID int) []Decision {
	var out []Decision
	for _, d := range r.Decisions {
		if d.RowID == rowID {
			out = append(out, d)
		}
	}
	return out
}

// NullsByAttribute breaks the injected nulls down per attribute — which
// columns paid for confidentiality.
func (r *Result) NullsByAttribute() map[string]int {
	out := make(map[string]int)
	for _, d := range r.Decisions {
		if d.Method == "local-suppression" {
			out[d.Attr]++
		}
	}
	return out
}
