package anon

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"vadasa/internal/hierarchy"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// incrementalConfigs covers every incremental assessor plus the recoding
// anonymizer (whose decisions invalidate the index and force mid-cycle
// rebuilds), under both null semantics.
func incrementalConfigs() map[string]Config {
	return map[string]Config{
		"kanon-suppression": {
			Assessor:   risk.KAnonymity{K: 3},
			Threshold:  0.5,
			Anonymizer: LocalSuppression{Choice: AttrMostSelective},
			Semantics:  mdb.MaybeMatch,
			Order:      OrderLessSignificantFirst,
		},
		"kanon-standard-nulls": {
			Assessor:   risk.KAnonymity{K: 3},
			Threshold:  0.5,
			Anonymizer: LocalSuppression{Choice: AttrMostSelective},
			Semantics:  mdb.StandardNulls,
		},
		"reident-suppression": {
			Assessor:   risk.ReIdentification{},
			Threshold:  0.2,
			Anonymizer: LocalSuppression{Choice: AttrMostSelective},
			Semantics:  mdb.MaybeMatch,
		},
		"individual-montecarlo": {
			Assessor:   risk.IndividualRisk{Estimator: risk.MonteCarlo, Samples: 50, Seed: 11},
			Threshold:  0.2,
			Anonymizer: LocalSuppression{Choice: AttrMostSelective},
			Semantics:  mdb.MaybeMatch,
			Order:      OrderByRiskDesc,
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

// fullAssess is cfg with the assessor's incremental methods hidden, so the
// cycle takes the reference full-assessment path every iteration.
func fullAssess(cfg Config) Config {
	cfg.Assessor = struct{ risk.ContextAssessor }{cfg.Assessor.(risk.ContextAssessor)}
	return cfg
}

// verifyingAssessor cross-checks every incremental re-scoring against a full
// assessment of the index's dataset and fails on the first bitwise
// difference.
type verifyingAssessor struct {
	risk.IncrementalAssessor
	sem mdb.Semantics
}

func (v verifyingAssessor) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	out, err := v.IncrementalAssessor.Rescore(ctx, idx, dirty, prev)
	if err != nil {
		return nil, err
	}
	full, err := v.AssessContext(ctx, idx.Dataset(), v.sem)
	if err != nil {
		return nil, fmt.Errorf("reference assessment: %w", err)
	}
	if len(out) != len(full) {
		return nil, fmt.Errorf("incremental scored %d rows, full assessment %d", len(out), len(full))
	}
	for row := range out {
		if out[row] != full[row] {
			return nil, fmt.Errorf("incremental risk diverges from full assessment at row %d: %v vs %v",
				row, out[row], full[row])
		}
	}
	return out, nil
}

// The incremental cycle must be indistinguishable from the reference
// full-assessment path: identical dataset, decision log (risk values
// bitwise included), counters and residuals. This is the determinism
// contract journal replay (PR 2) depends on.
func TestCycleIncrementalMatchesReference(t *testing.T) {
	for name, cfg := range incrementalConfigs() {
		t.Run(name, func(t *testing.T) {
			var d *mdb.Dataset
			if name == "recode-then-suppress" {
				d = synth.Figure5()
			} else {
				d = synth.Generate(synth.Config{Tuples: 500, QIs: 4, Dist: synth.DistU, Seed: 37})
			}
			control, err := Run(d, fullAssess(cfg))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, control, got)
			for i := range control.Decisions {
				if control.Decisions[i].Risk != got.Decisions[i].Risk {
					t.Fatalf("decision %d risk: %v vs %v (bitwise mismatch)",
						i, control.Decisions[i].Risk, got.Decisions[i].Risk)
				}
			}
			if control.InfoLoss != got.InfoLoss {
				t.Fatalf("info loss: %v vs %v", control.InfoLoss, got.InfoLoss)
			}
		})
	}
}

// The verifying assessor re-runs the reference assessment every iteration and
// fails on any divergence; a clean pass is the runtime form of the property
// above.
func TestCycleDebugVerify(t *testing.T) {
	for name, cfg := range incrementalConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Assessor = verifyingAssessor{cfg.Assessor.(risk.IncrementalAssessor), cfg.Semantics}
			d := synth.Generate(synth.Config{Tuples: 300, QIs: 4, Dist: synth.DistU, Seed: 41})
			if name == "recode-then-suppress" {
				d = synth.Figure5()
			}
			if _, err := Run(d, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Force real parallelism inside the pool-backed stages and re-check the
// reference equality; combined with -race in CI this proves the parallel
// path is both data-race-free and bit-deterministic.
func TestCycleIncrementalParallelDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	cfg := incrementalConfigs()["individual-montecarlo"]
	d := synth.Generate(synth.Config{Tuples: 800, QIs: 4, Dist: synth.DistW, Seed: 43})
	control, err := Run(d, fullAssess(cfg))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, control, got)
}

// Resume must keep producing identical results now that the continued part
// of the cycle runs incrementally over a replayed, null-bearing dataset.
func TestResumeWithIncrementalAssessment(t *testing.T) {
	cfg := incrementalConfigs()["kanon-suppression"]
	d := synth.Generate(synth.Config{Tuples: 400, QIs: 4, Dist: synth.DistU, Seed: 23})
	var cps []Checkpoint
	collect := cfg
	collect.Checkpoint = func(cp Checkpoint) error { cps = append(cps, cp); return nil }
	control, err := Run(d, collect)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 {
		t.Fatalf("need at least 2 checkpoints, got %d", len(cps))
	}
	mid := len(cps) / 2
	resumed, err := ResumeContext(nil, d, cfg, cps[:mid])
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, control, resumed)
}

// BenchmarkReplayCheckpoint regression-tests the resume fast path: replaying
// a journal is O(decisions) with the per-resume ID map, where the old
// per-decision row scan made large journals quadratic.
func BenchmarkReplayCheckpoint(b *testing.B) {
	d := synth.Generate(synth.Config{Tuples: 5000, QIs: 4, Dist: synth.DistU, Seed: 59})
	cfg := Config{
		Assessor:      risk.KAnonymity{K: 4},
		Threshold:     0.5,
		Anonymizer:    LocalSuppression{Choice: AttrMostSelective},
		Semantics:     mdb.MaybeMatch,
		BatchFraction: 1,
	}
	var cps []Checkpoint
	collect := cfg
	collect.Checkpoint = func(cp Checkpoint) error { cps = append(cps, cp); return nil }
	if _, err := Run(d, collect); err != nil {
		b.Fatal(err)
	}
	decisions := 0
	for _, cp := range cps {
		decisions += len(cp.Decisions)
	}
	b.ReportMetric(float64(decisions), "decisions/replay")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Replaying the full journal leaves one closing assessment that
		// finds nothing risky; replay cost dominates on large journals.
		if _, err := ResumeContext(nil, d, cfg, cps); err != nil {
			b.Fatal(err)
		}
	}
}
