package anon

import (
	"fmt"
	"testing"

	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// The result's minimum group is the release's, whichever way the cycle got
// it: off the view's index (k-anonymity, re-identification, individual risk
// and a sensitive column outside the quasi-identifiers, under maybe-match) or
// by regrouping (SUDA, a sensitive column that is one of them, standard
// nulls) — for every measure of the table, under both semantics, for an
// uninterrupted run and for runs resumed from its checkpoints.
func TestMinGroupSizeIsTheRelease(t *testing.T) {
	base := synth.Generate(synth.Config{Tuples: 250, QIs: 5, Dist: synth.DistU, Seed: 41})
	last := base.QuasiIdentifiers()[4]
	outside := base.Clone()
	outside.Attrs[last].Category = mdb.NonIdentifying
	sp := risk.Spec{K: 3, MSU: 3, Sensitive: base.Attrs[last].Name, T: 0.3}
	for _, kind := range risk.Kinds() {
		for _, sem := range []mdb.Semantics{mdb.MaybeMatch, mdb.StandardNulls} {
			for name, d := range map[string]*mdb.Dataset{"sensitive among the QIs": base, "sensitive outside": outside} {
				t.Run(fmt.Sprintf("%s/%s/%s", kind, sem, name), func(t *testing.T) {
					sp.Kind = kind
					m, err := sp.Measure()
					if err != nil {
						t.Fatal(err)
					}
					var cps []Checkpoint
					cfg := Config{Assessor: m, Threshold: 0.1, Anonymizer: LocalSuppression{Choice: AttrMostSelective}, Semantics: sem}
					collect := cfg
					collect.Checkpoint = func(cp Checkpoint) error {
						cps = append(cps, cp)
						return nil
					}
					control, err := RunContext(nil, d, collect)
					if err != nil {
						t.Fatal(err)
					}
					want := 0
					for i, f := range mdb.Frequencies(control.Dataset, d.QuasiIdentifiers(), mdb.MaybeMatch) {
						if i == 0 || f < want {
							want = f
						}
					}
					if control.MinGroupSize != want {
						t.Fatalf("MinGroupSize = %d, the release's smallest group is %d", control.MinGroupSize, want)
					}
					for _, k := range []int{len(cps) / 2, len(cps)} {
						resumed, err := ResumeContext(nil, d, cfg, cps[:k])
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, control, resumed)
						if resumed.MinGroupSize != want {
							t.Fatalf("resumed from %d/%d checkpoints: MinGroupSize = %d, want %d", k, len(cps), resumed.MinGroupSize, want)
						}
					}
				})
			}
		}
	}
}
