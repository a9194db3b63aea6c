package anon

import (
	"context"
	"fmt"
	"slices"
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

// maxIterations caps one run of the loop — the batch cycle's and a stream
// release gate's alike.
const maxIterations = 10_000

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
	// Dataset is the anonymized dataset: a copy of the input, which is not
	// modified, or the input itself after ResumeInPlace.
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
	// MinGroupSize is the smallest maybe-match group of the release over the
	// quasi-identifiers (0 without rows): the anonymity level achieved.
	MinGroupSize int
	// RiskEvalTime and AnonTime split the elapsed time between the risk
	// estimation component and the anonymization steps (Figure 7e's
	// dotted vs solid lines).
	RiskEvalTime, AnonTime time.Duration
}

// absorb folds one committed iteration, live or replayed, into the result.
func (res *Result) absorb(cp Checkpoint) {
	res.Decisions = append(res.Decisions, cp.Decisions...)
	if cp.Iteration == 0 {
		res.InitialRisky = len(cp.NewRisky)
	}
}

// Loop is the iteration of Algorithm 2 over a dataset it mutates in place:
// assess, select the tuples over the threshold, route them, bound the batch,
// apply one minimal step to each, commit, re-assess (DESIGN.md §7.1). It is
// the only code that steps an Anonymizer. The anonymization cycle runs it
// over its working dataset, a stream's release gate over the live window;
// what differs between them is spelled as values — where the risk vector
// comes from, how much of the risky set one evaluation may motivate, what
// makes an iteration durable.
type Loop struct {
	// Dataset is anonymized in place.
	Dataset *mdb.Dataset
	// Threshold, Anonymizer, Order and BatchFraction are Config's.
	Threshold     float64
	Anonymizer    Anonymizer
	Order         TupleOrder
	BatchFraction float64
	// Risks returns the risk vector of Dataset as it stands, one score per
	// row position, read-only and valid until View's next delta. It is asked
	// once at the top of every iteration; its error ends the run as it is.
	Risks func(ctx context.Context) ([]float64, error)
	// Commit receives every iteration that stepped or exhausted a tuple,
	// after Dataset has changed and before View hears of it. If it fails the
	// iteration is undone and its error ends the run as it is.
	Commit CheckpointFunc
	// View is the live risk view Risks reads. It is fed an iteration's cells
	// only once Commit has accepted them, so an iteration that is rolled
	// back never reached it.
	View *risk.Live

	// Control state, which a resuming cycle rebuilds from checkpoints: the
	// next iteration (0-based), the row positions with no step left and ever
	// seen over the threshold, and the elapsed time as Result splits it.
	iter                 int
	exhausted, everRisky map[int]bool
	riskEval, anon       time.Duration
	// step is the context the anonymizer steps in: the running iteration's,
	// the last one's once Run has returned.
	step *Context
}

// NotConvergedError ends a run that used up its iterations with actionable
// tuples still over the threshold.
type NotConvergedError struct {
	Iterations int
}

func (e *NotConvergedError) Error() string {
	return fmt.Sprintf("anon: cycle did not converge within %d iterations", e.Iterations)
}

func cancelled(iter int, err error) error {
	return fmt.Errorf("anon: cycle cancelled at iteration %d: %w", iter, err)
}

// Run iterates until no tuple over the threshold has a step left and returns
// the positions of the rows still over it — none, unless the anonymizer ran
// out of moves for them. On an error Dataset, its null allocator and View
// stand as before the iteration that failed, so a caller that keeps the
// dataset can run a fresh Loop over it and mint the same null ids. That undo
// covers local suppression, the one method such a caller uses: the cells a
// global recoding rewrote are not restored.
// The context is polled at every iteration boundary and between steps.
func (l *Loop) Run(ctx context.Context) ([]int, error) {
	d := l.Dataset
	if l.exhausted == nil {
		l.exhausted, l.everRisky = make(map[int]bool), make(map[int]bool)
	}
	l.step = NewContext(d, d.QuasiIdentifiers())
	evalStart := time.Now()
	for ; ; l.iter++ {
		if l.iter >= maxIterations {
			return nil, &NotConvergedError{Iterations: maxIterations}
		}
		if err := ctx.Err(); err != nil {
			return nil, cancelled(l.iter, err)
		}
		risks, err := l.Risks(ctx)
		cp := Checkpoint{Iteration: l.iter, RiskEval: time.Since(evalStart)}
		l.riskEval += cp.RiskEval
		if err != nil {
			return nil, err
		}
		if l.step.tab == nil {
			// Only here, at the top of an iteration, do the view's codes match
			// the dataset: the steps below change cells it has not heard of.
			if idx := l.View.Index(); idx != nil {
				l.step.tab = idx.CodeTable(l.step.QI, mdb.MaybeMatch)
			}
		}

		var risky []int
		for row, r := range risks {
			if r > l.Threshold {
				if !l.everRisky[row] {
					l.everRisky[row] = true
					cp.NewRisky = append(cp.NewRisky, row)
				}
				if !l.exhausted[row] {
					risky = append(risky, row)
				}
			}
		}
		if len(risky) == 0 {
			// Whatever is still over the threshold is exhausted. The vector is
			// current — nothing mutated the dataset since it was computed.
			var residual []int
			for row, r := range risks {
				if r > l.Threshold {
					residual = append(residual, row)
				}
			}
			return residual, nil
		}
		l.Order.route(d, risks, risky)
		if frac := l.BatchFraction; frac < 1 {
			if frac <= 0 {
				frac = 0.25
			}
			if limit := max(32, int(frac*float64(len(risky)))); limit < len(risky) {
				risky = risky[:limit]
			}
		}

		stepStart := time.Now()
		nulls := d.Nulls
		var cells []cell
		undo := func() {
			for i := len(cells) - 1; i >= 0; i-- {
				if c := cells[i]; c.attr >= 0 {
					d.Rows[c.pos].Values[c.attr] = c.old
				}
			}
			d.Nulls = nulls
		}
		for _, row := range risky {
			if err := ctx.Err(); err != nil {
				undo()
				return nil, cancelled(l.iter, err)
			}
			decisions, ok := l.Anonymizer.Step(l.step, row)
			if !ok {
				// Nothing more can be done for this tuple; it is excluded
				// from future batches and ends up in the residual report.
				// Other risky tuples still get their turn in later iterations.
				l.exhausted[row] = true
				cp.Exhausted = append(cp.Exhausted, row)
				continue
			}
			for i := range decisions {
				decisions[i].Iteration, decisions[i].Risk = l.iter+1, risks[row]
			}
			stepped := len(cells)
			cells = appendCells(cells, d, row, decisions)
			l.step.applied(cells[stepped:])
			cp.Decisions = append(cp.Decisions, decisions...)
		}
		l.step = l.step.next()
		cp.Anon = time.Since(stepStart)
		l.anon += cp.Anon

		if err := l.Commit(cp); err != nil {
			undo()
			return nil, err
		}
		// Keeping the view's index in step is risk-side work: it counts
		// towards the next evaluation, so RiskEval and Anon still split the
		// whole elapsed time.
		evalStart = time.Now()
		for _, c := range cells {
			if c.attr < 0 {
				l.View.Invalidate()
				break
			}
			if err := l.View.Suppressed(c.pos, c.attr); err != nil {
				return nil, fmt.Errorf("anon: index maintenance: %w", err)
			}
		}
	}
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
// It is the one place a cycle copies its input: Run, RunContext and it
// leave d as it was.
func ResumeContext(ctx context.Context, d *mdb.Dataset, cfg Config, checkpoints []Checkpoint) (*Result, error) {
	return ResumeInPlace(ctx, d.Clone(), cfg, checkpoints)
}

// ResumeInPlace is ResumeContext on d itself, for a caller that gives d up:
// the cycle anonymizes d, returns it as Result.Dataset, and on an error
// leaves it in whatever state the cycle reached.
func ResumeInPlace(ctx context.Context, d *mdb.Dataset, cfg Config, checkpoints []Checkpoint) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Assessor == nil {
		return nil, fmt.Errorf("anon: Config.Assessor is required")
	}
	if cfg.Anonymizer == nil {
		return nil, fmt.Errorf("anon: Config.Anonymizer is required")
	}
	if !risk.Probability(cfg.Threshold) {
		return nil, fmt.Errorf("anon: threshold %g outside [0,1]", cfg.Threshold)
	}

	// When ctx carries a resource governor, the working dataset and the
	// accumulated decision/checkpoint buffers are charged against the
	// memory budget; the whole footprint is refunded when the cycle
	// returns. A failed reservation surfaces as the governor's typed
	// error, which the job layer treats as back-pressure, not failure.
	gov := govern.From(ctx)
	var charged int64
	defer func() { gov.ReleaseBytes(charged) }()
	charge := func(n int64, what string) error {
		if err := gov.ReserveBytes(n); err != nil {
			return fmt.Errorf("anon: %s: %w", what, err)
		}
		charged += n
		return nil
	}

	if err := charge(d.EstimatedBytes(), "working dataset"); err != nil {
		return nil, err
	}
	qi := d.QuasiIdentifiers()
	if len(qi) == 0 {
		return nil, fmt.Errorf("anon: dataset %q has no quasi-identifiers", d.Name)
	}
	res := &Result{Dataset: d}
	nullsBefore := d.NullCount()

	// The view keeps the risk vector current across iterations: measures
	// with an incremental path are re-scored from a maintained group index,
	// the rest (SUDA, cluster) reassessed in full — bit-identical either way.
	view := risk.NewLive(cfg.Assessor, d, cfg.Semantics, gov)
	defer view.Close()

	loop := &Loop{
		Dataset:       d,
		Threshold:     cfg.Threshold,
		Anonymizer:    cfg.Anonymizer,
		Order:         cfg.Order,
		BatchFraction: cfg.BatchFraction,
		View:          view,
		exhausted:     make(map[int]bool),
		everRisky:     make(map[int]bool),
	}
	loop.Risks = func(ctx context.Context) ([]float64, error) {
		risks, err := view.Risks(ctx)
		if err != nil {
			return nil, fmt.Errorf("anon: risk assessment: %w", err)
		}
		return risks, nil
	}
	loop.Commit = func(cp Checkpoint) error {
		if err := charge(decisionBytes(cp.Decisions)+int64(len(cp.Exhausted)+len(cp.NewRisky))*8,
			fmt.Sprintf("iteration %d checkpoint buffers", cp.Iteration)); err != nil {
			return err
		}
		res.absorb(cp)
		if cfg.Checkpoint != nil {
			if err := cfg.Checkpoint(cp); err != nil {
				return fmt.Errorf("anon: committing iteration %d checkpoint: %w", cp.Iteration, err)
			}
		}
		return nil
	}

	if len(checkpoints) > 0 {
		// Journaled decisions name rows by id; positions are stable because
		// the cycle never reorders rows.
		rowPos := make(map[int]int, len(d.Rows))
		for i, r := range d.Rows {
			rowPos[r.ID] = i
		}
		position := func(id int) (int, bool) { pos, ok := rowPos[id]; return pos, ok }
		for _, cp := range checkpoints {
			if err := loop.replay(cp, res, position); err != nil {
				return nil, err
			}
		}
	}

	residual, err := loop.Run(ctx)
	if err != nil {
		return nil, err
	}
	res.Iterations = loop.iter
	res.RiskEvalTime, res.AnonTime = loop.riskEval, loop.anon
	for _, row := range residual {
		res.Residual = append(res.Residual, d.Rows[row].ID)
	}
	res.EverRisky = len(loop.everRisky)
	res.NullsInjected = d.NullCount() - nullsBefore
	if denom := res.EverRisky * len(qi); denom > 0 {
		res.InfoLoss = float64(res.NullsInjected) / float64(denom)
	}
	res.MinGroupSize = minGroupSize(view, loop.step)
	return res, nil
}

// minGroupSize is the smallest maybe-match group of the release over its
// quasi-identifiers. The view's index holds exactly that grouping when it is
// current, maybe-match and over the quasi-identifiers — every k-anonymity,
// re-identification and individual-risk cycle; any other view costs one
// grouping of every column of the step context's table.
func minGroupSize(view *risk.Live, actx *Context) int {
	var infos []mdb.GroupInfo
	if idx := view.Index(); idx != nil && idx.Semantics() == mdb.MaybeMatch && slices.Equal(idx.Attrs(), actx.QI) {
		infos = idx.Infos()
	} else {
		all := make([]int, len(actx.QI))
		for j := range all {
			all[j] = j
		}
		infos = actx.table().Group(all)
	}
	m := 0
	for i, g := range infos {
		if i == 0 || g.Freq < m {
			m = g.Freq
		}
	}
	return m
}

// replay applies one journaled iteration to a resuming loop: the decisions
// are re-applied to the dataset verbatim and the control-state deltas folded
// in, so Run continues with the iteration after it.
func (l *Loop) replay(cp Checkpoint, res *Result, position func(rowID int) (int, bool)) error {
	if cp.Iteration != l.iter {
		return fmt.Errorf("anon: resume checkpoint out of order: got iteration %d, want %d", cp.Iteration, l.iter)
	}
	if err := Replay(l.Dataset, cp.Decisions, position); err != nil {
		return fmt.Errorf("anon: replay iteration %d: %w", cp.Iteration, err)
	}
	for _, row := range cp.Exhausted {
		if row < 0 || row >= len(l.Dataset.Rows) {
			return fmt.Errorf("anon: replay iteration %d: exhausted row %d out of range", cp.Iteration, row)
		}
		l.exhausted[row] = true
	}
	for _, row := range cp.NewRisky {
		if row < 0 || row >= len(l.Dataset.Rows) {
			return fmt.Errorf("anon: replay iteration %d: risky row %d out of range", cp.Iteration, row)
		}
		l.everRisky[row] = true
	}
	res.absorb(cp)
	l.riskEval += cp.RiskEval
	l.anon += cp.Anon
	l.iter++
	return nil
}

// route orders the risky tuples (row positions into d, scored by risks) the
// way they are anonymized: sampling weight ascending, risk descending, or
// dataset order, each with the tuple ID as the deterministic tiebreak.
func (o TupleOrder) route(d *mdb.Dataset, risks []float64, risky []int) {
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
