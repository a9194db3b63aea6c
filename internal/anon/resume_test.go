package anon

import (
	"errors"
	"fmt"
	"testing"

	"vadasa/internal/hierarchy"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// countingAssessor wraps an assessor and counts Assess calls, so tests can
// prove the cycle runs exactly one assessment per iteration (the residual
// report reuses the last vector instead of re-assessing).
type countingAssessor struct {
	inner risk.Assessor
	calls int
}

func (c *countingAssessor) Name() string { return c.inner.Name() }

func (c *countingAssessor) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	c.calls++
	return c.inner.Assess(d, sem)
}

func sameDataset(t *testing.T, a, b *mdb.Dataset) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i].ID != b.Rows[i].ID {
			t.Fatalf("row %d ids differ: %d vs %d", i, a.Rows[i].ID, b.Rows[i].ID)
		}
		for j := range a.Rows[i].Values {
			if a.Rows[i].Values[j] != b.Rows[i].Values[j] {
				t.Fatalf("row %d attr %s: %v vs %v",
					i, a.Attrs[j].Name, a.Rows[i].Values[j], b.Rows[i].Values[j])
			}
		}
	}
}

func sameResult(t *testing.T, control, resumed *Result) {
	t.Helper()
	sameDataset(t, control.Dataset, resumed.Dataset)
	if len(control.Decisions) != len(resumed.Decisions) {
		t.Fatalf("decision counts differ: %d vs %d", len(control.Decisions), len(resumed.Decisions))
	}
	for i := range control.Decisions {
		c, r := control.Decisions[i], resumed.Decisions[i]
		if c.RowID != r.RowID || c.Attr != r.Attr || c.Method != r.Method ||
			c.Old != r.Old || c.New != r.New || c.Iteration != r.Iteration ||
			c.AffectedRows != r.AffectedRows {
			t.Fatalf("decision %d differs:\n  control: %+v\n  resumed: %+v", i, c, r)
		}
	}
	if control.Iterations != resumed.Iterations {
		t.Fatalf("iterations: %d vs %d", control.Iterations, resumed.Iterations)
	}
	if control.InitialRisky != resumed.InitialRisky {
		t.Fatalf("initial risky: %d vs %d", control.InitialRisky, resumed.InitialRisky)
	}
	if control.EverRisky != resumed.EverRisky {
		t.Fatalf("ever risky: %d vs %d", control.EverRisky, resumed.EverRisky)
	}
	if control.NullsInjected != resumed.NullsInjected {
		t.Fatalf("nulls injected: %d vs %d", control.NullsInjected, resumed.NullsInjected)
	}
	if len(control.Residual) != len(resumed.Residual) {
		t.Fatalf("residual: %v vs %v", control.Residual, resumed.Residual)
	}
	for i := range control.Residual {
		if control.Residual[i] != resumed.Residual[i] {
			t.Fatalf("residual: %v vs %v", control.Residual, resumed.Residual)
		}
	}
}

// resumeConfigs are cycle configurations exercising both anonymization
// methods the replay path must handle: pure suppression, and recoding with
// suppression fallback (column-wide writes with AffectedRows > 1).
func resumeConfigs() map[string]Config {
	return map[string]Config{
		"suppression": {
			Assessor:   risk.KAnonymity{K: 3},
			Threshold:  0.5,
			Anonymizer: LocalSuppression{Choice: AttrMostSelective},
			Semantics:  mdb.MaybeMatch,
			Order:      OrderLessSignificantFirst,
		},
		"recode-then-suppress": {
			Assessor:  risk.KAnonymity{K: 2},
			Threshold: 0.5,
			Anonymizer: Composite{
				GlobalRecoding{KB: hierarchy.ItalianGeography(), Choice: AttrMostSelective},
				LocalSuppression{Choice: AttrMostSelective},
			},
			Semantics: mdb.MaybeMatch,
		},
	}
}

// TestResumeEveryPrefix is the determinism contract behind crash recovery:
// for every prefix of the checkpoint stream, replaying that prefix and
// continuing must reproduce the uninterrupted run exactly — same dataset,
// same decision log, same counters.
func TestResumeEveryPrefix(t *testing.T) {
	for name, cfg := range resumeConfigs() {
		t.Run(name, func(t *testing.T) {
			d := synth.Figure5()
			if name == "suppression" {
				d = synth.Generate(synth.Config{Tuples: 400, QIs: 4, Dist: synth.DistU, Seed: 23})
			}

			var cps []Checkpoint
			collect := cfg
			collect.Checkpoint = func(cp Checkpoint) error {
				cps = append(cps, cp)
				return nil
			}
			control, err := RunContext(nil, d, collect)
			if err != nil {
				t.Fatal(err)
			}
			if len(cps) == 0 {
				t.Fatal("cycle committed no checkpoints; test proves nothing")
			}
			if len(cps) != control.Iterations {
				t.Fatalf("%d checkpoints for %d iterations", len(cps), control.Iterations)
			}

			for k := 0; k <= len(cps); k++ {
				resumed, err := ResumeContext(nil, d, cfg, cps[:k])
				if err != nil {
					t.Fatalf("resume from %d/%d checkpoints: %v", k, len(cps), err)
				}
				sameResult(t, control, resumed)
			}
		})
	}
}

// TestResumeChecksCheckpointOrder: a gap or reorder in the journaled
// iterations means the journal does not describe this run; resume must
// refuse rather than replay a wrong state.
func TestResumeChecksCheckpointOrder(t *testing.T) {
	d := synth.Figure5()
	cfg := resumeConfigs()["suppression"]
	var cps []Checkpoint
	collect := cfg
	collect.Checkpoint = func(cp Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}
	if _, err := RunContext(nil, synth.Generate(synth.Config{Tuples: 400, QIs: 4, Dist: synth.DistU, Seed: 23}), collect); err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("need at least 2 checkpoints, got %d", len(cps))
	}
	if _, err := ResumeContext(nil, d, cfg, []Checkpoint{cps[1]}); err == nil {
		t.Fatal("resume accepted a checkpoint stream starting at iteration 1")
	}
	if _, err := ResumeContext(nil, d, cfg, []Checkpoint{cps[1], cps[0]}); err == nil {
		t.Fatal("resume accepted reordered checkpoints")
	}
}

// TestResumeRejectsForeignJournal: decisions referencing tuples or attributes
// the dataset does not have must fail loudly, not corrupt the clone.
func TestResumeRejectsForeignJournal(t *testing.T) {
	d := synth.Figure5()
	cfg := resumeConfigs()["suppression"]
	bad := Checkpoint{Iteration: 0, Decisions: []Decision{{
		RowID: 9999, Attr: "Area", Method: "local-suppression", New: mdb.Null(1),
	}}}
	if _, err := ResumeContext(nil, d, cfg, []Checkpoint{bad}); err == nil {
		t.Fatal("resume accepted a decision for a nonexistent tuple")
	}
	bad.Decisions[0] = Decision{RowID: 1, Attr: "NoSuchAttr", Method: "local-suppression", New: mdb.Null(1)}
	if _, err := ResumeContext(nil, d, cfg, []Checkpoint{bad}); err == nil {
		t.Fatal("resume accepted a decision for a nonexistent attribute")
	}
	bad.Decisions[0] = Decision{RowID: 1, Attr: "Area", Method: "teleportation", New: mdb.Null(1)}
	if _, err := ResumeContext(nil, d, cfg, []Checkpoint{bad}); err == nil {
		t.Fatal("resume accepted an unknown anonymization method")
	}
	// Every journaled decision carries the value it replaced: one the cell
	// does not hold means the journal describes another dataset.
	bad.Decisions[0] = Decision{RowID: 1, Attr: "Area", Old: mdb.Const("Nowhere-on-earth"),
		Method: "local-suppression", New: mdb.Null(1), AffectedRows: 1}
	if _, err := ResumeContext(nil, d, cfg, []Checkpoint{bad}); err == nil {
		t.Fatal("resume accepted a decision whose old value the cell does not hold")
	}
	area := d.Rows[0].Values[d.AttrIndex("Area")]
	once := Decision{RowID: d.Rows[0].ID, Attr: "Area", Old: area, Method: "local-suppression", New: mdb.Null(1), AffectedRows: 1}
	twice := once
	twice.New = mdb.Null(2)
	bad.Decisions = []Decision{once, twice}
	if _, err := ResumeContext(nil, d, cfg, []Checkpoint{bad}); err == nil {
		t.Fatal("resume accepted two suppressions of the same cell")
	}
	bad.Decisions = []Decision{once}
	if _, err := ResumeContext(nil, d, cfg, []Checkpoint{bad}); err != nil {
		t.Fatalf("resume refused a decision that matches the dataset: %v", err)
	}
}

// TestCheckpointErrorAbortsCycle: the checkpoint hook is a write-ahead
// commit point — if the journal write fails, continuing would produce state
// the journal cannot reconstruct, so the cycle must stop.
func TestCheckpointErrorAbortsCycle(t *testing.T) {
	d := synth.Figure5()
	cfg := resumeConfigs()["suppression"]
	boom := errors.New("disk full")
	calls := 0
	cfg.Checkpoint = func(cp Checkpoint) error {
		calls++
		return boom
	}
	_, err := RunContext(nil, d, cfg)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped checkpoint error", err)
	}
	if calls != 1 {
		t.Fatalf("cycle continued after a failed checkpoint (%d calls)", calls)
	}
}

// TestResumeFreshNullsDoNotCollide: null ids allocated after a resume must
// not reuse ids recorded in the journal, or distinct suppressions would
// merge under maybe-match semantics.
func TestResumeFreshNullsDoNotCollide(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 400, QIs: 4, Dist: synth.DistU, Seed: 23})
	cfg := resumeConfigs()["suppression"]
	var cps []Checkpoint
	collect := cfg
	collect.Checkpoint = func(cp Checkpoint) error {
		cps = append(cps, cp)
		return nil
	}
	if _, err := RunContext(nil, d, collect); err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("need at least 2 checkpoints, got %d", len(cps))
	}
	res, err := ResumeContext(nil, d, cfg, cps[:1])
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{}
	for _, dec := range res.Decisions {
		if !dec.New.IsNull() {
			continue
		}
		key := fmt.Sprintf("%d/%s", dec.RowID, dec.Attr)
		if prev, dup := seen[dec.New.NullID()]; dup && prev != key {
			t.Fatalf("null id %d used for both %s and %s", dec.New.NullID(), prev, key)
		}
		seen[dec.New.NullID()] = key
	}
}

// TestCycleAssessesOncePerIteration locks in the residual-pass fix: the
// loop exits only immediately after an assessment with no mutation in
// between, so the residual report must reuse that vector instead of paying
// for (and timing) a redundant final assessment.
func TestCycleAssessesOncePerIteration(t *testing.T) {
	// Clean dataset (every row identical, so nothing is ever risky): one
	// assessment decides the cycle is done; there must be no second
	// "final" pass.
	clean := mdb.NewDataset("clean", []mdb.Attribute{
		{Name: "Area", Category: mdb.QuasiIdentifier},
		{Name: "Sector", Category: mdb.QuasiIdentifier},
	})
	for i := 0; i < 8; i++ {
		clean.Append(&mdb.Row{Values: []mdb.Value{mdb.Const("Roma"), mdb.Const("Commerce")}})
	}
	probe := &countingAssessor{inner: risk.KAnonymity{K: 2}}
	res, err := Run(clean, Config{
		Assessor:   probe,
		Threshold:  0.5,
		Anonymizer: LocalSuppression{},
		Semantics:  mdb.MaybeMatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("constant dataset took %d iterations", res.Iterations)
	}
	if probe.calls != 1 {
		t.Fatalf("clean run assessed %d times, want exactly 1", probe.calls)
	}

	// Working dataset: exactly one assessment per loop entry, none extra.
	probe = &countingAssessor{inner: risk.KAnonymity{K: 2}}
	res, err = Run(synth.Figure5(), Config{
		Assessor:   probe,
		Threshold:  0.5,
		Anonymizer: LocalSuppression{Choice: AttrMostSelective},
		Semantics:  mdb.MaybeMatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if probe.calls != res.Iterations+1 {
		t.Fatalf("assessed %d times over %d iterations, want %d",
			probe.calls, res.Iterations, res.Iterations+1)
	}
}
