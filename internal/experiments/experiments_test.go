package experiments

import (
	"context"
	"strings"
	"testing"

	"vadasa/internal/mdb"
	"vadasa/internal/programs"
)

// The harness runs every figure end to end at a tiny scale; assertions pin
// the shapes the paper reports, so a regression in any module that bends a
// curve fails here.
const testScale = 0.04 // 1000-tuple datasets

func TestFig6(t *testing.T) {
	infos := Fig6(testScale)
	if len(infos) != 12 {
		t.Fatalf("got %d datasets", len(infos))
	}
	var b strings.Builder
	RenderFig6(&b, infos)
	if !strings.Contains(b.String(), "Figure 6") {
		t.Error("render header missing")
	}
}

func TestFig7aShapes(t *testing.T) {
	stats, err := Fig7a(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 12 { // 3 datasets x 4 thresholds
		t.Fatalf("got %d runs", len(stats))
	}
	// Nulls monotone in k within each dataset.
	for i := 1; i < len(stats); i++ {
		if stats[i].Dataset == stats[i-1].Dataset && stats[i].Nulls < stats[i-1].Nulls {
			t.Errorf("nulls not monotone in k: %+v -> %+v", stats[i-1], stats[i])
		}
	}
	// W < U < V at k=2 (runs are ordered W, U, V).
	if !(stats[0].Nulls < stats[4].Nulls && stats[4].Nulls < stats[8].Nulls) {
		t.Errorf("family ordering broken: W=%d U=%d V=%d",
			stats[0].Nulls, stats[4].Nulls, stats[8].Nulls)
	}
	// Everything converges under maybe-match.
	for _, s := range stats {
		if s.Residual != 0 {
			t.Errorf("%s k=%d left %d residual tuples", s.Dataset, s.K, s.Residual)
		}
		if s.InfoLoss <= 0 || s.InfoLoss >= 1 {
			t.Errorf("%s k=%d info loss %g out of range", s.Dataset, s.K, s.InfoLoss)
		}
	}
	var a, b strings.Builder
	RenderFig7a(&a, stats)
	RenderFig7b(&b, stats)
	if !strings.Contains(a.String(), "7a") || !strings.Contains(b.String(), "7b") {
		t.Error("render headers missing")
	}
}

func TestFig7cShapes(t *testing.T) {
	stats, err := Fig7c(testScale)
	if err != nil {
		t.Fatal(err)
	}
	// Standard semantics must inject more nulls and leave residuals.
	byKey := map[string]CycleStats{}
	for _, s := range stats {
		byKey[s.Dataset+"|"+s.Semantics.String()+"|"+string(rune('0'+s.K))] = s
	}
	for _, s := range stats {
		if s.Semantics.String() != "standard" {
			continue
		}
		mm := byKey[s.Dataset+"|maybe-match|"+string(rune('0'+s.K))]
		if s.Nulls <= mm.Nulls {
			t.Errorf("%s k=%d: standard %d nulls <= maybe-match %d",
				s.Dataset, s.K, s.Nulls, mm.Nulls)
		}
		if s.Residual == 0 {
			t.Errorf("%s k=%d: standard semantics left no residual", s.Dataset, s.K)
		}
	}
	var b strings.Builder
	RenderFig7c(&b, stats)
	if !strings.Contains(b.String(), "standard") {
		t.Error("render missing standard rows")
	}
}

// Figure 7c's Skolem arm regenerated through the reasoner: the declarative
// cycle — risk and suppression both chases on the engine, whose labelled
// nulls are Skolem constants — injects exactly the nulls the native sweep
// injects under the standard semantics, on every dataset and every k. (Under
// that semantics a risky tuple ends fully suppressed whatever the routing,
// so the two sweeps' different heuristics do not matter.) The maybe-match
// arm has no declarative counterpart until the engine groups by maybe-match
// (PAPER.md §4.3).
func TestFig7cSkolemArmThroughTheReasoner(t *testing.T) {
	const scale = 0.02 // 500-tuple datasets: every iteration re-reasons over the whole table
	stats, err := Fig7c(scale)
	if err != nil {
		t.Fatal(err)
	}
	native := map[string]CycleStats{}
	for _, s := range stats {
		if s.Semantics == mdb.StandardNulls {
			native[s.Dataset+"|"+string(rune('0'+s.K))] = s
		}
	}
	for _, d := range dataset25k(scale) {
		for k := 2; k <= 5; k++ {
			res, err := programs.DeclarativeCycleContext(context.Background(), d, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", d.Name, k, err)
			}
			want := native[d.Name+"|"+string(rune('0'+k))]
			if want.Nulls == 0 {
				t.Fatalf("%s k=%d: the native Skolem arm injected no nulls", d.Name, k)
			}
			if res.NullsInjected != want.Nulls || len(res.Residual) != want.Residual {
				t.Errorf("%s k=%d: the reasoner injected %d nulls (%d residual), the native Skolem arm %d (%d)",
					d.Name, k, res.NullsInjected, len(res.Residual), want.Nulls, want.Residual)
			}
		}
	}
}

func TestFig7dShapes(t *testing.T) {
	stats, err := Fig7d(testScale)
	if err != nil {
		t.Fatal(err)
	}
	// Risky-tuple counts monotone in the number of relationships.
	for i := 1; i < len(stats); i++ {
		if stats[i].Dataset == stats[i-1].Dataset && stats[i].Risky < stats[i-1].Risky {
			t.Errorf("risky not monotone: %+v -> %+v", stats[i-1], stats[i])
		}
	}
	var b strings.Builder
	RenderFig7d(&b, stats)
	if !strings.Contains(b.String(), "rels") {
		t.Error("render header missing")
	}
}

func TestFig7eShapes(t *testing.T) {
	stats, err := Fig7e(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 15 { // 5 sizes x 3 techniques
		t.Fatalf("got %d runs", len(stats))
	}
	for _, s := range stats {
		if s.RiskEval > s.Total {
			t.Errorf("%s on %s: risk-eval %v exceeds total %v",
				s.Technique, s.Dataset, s.RiskEval, s.Total)
		}
	}
	var b strings.Builder
	RenderFig7e(&b, stats)
	if !strings.Contains(b.String(), "risk-eval") {
		t.Error("render header missing")
	}
}

func TestFig7fShapes(t *testing.T) {
	stats, err := Fig7f(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 15 { // 5 widths x 3 techniques
		t.Fatalf("got %d runs", len(stats))
	}
	// SUDA cost grows with the number of quasi-identifiers.
	var sudaFirst, sudaLast TimeStats
	for _, s := range stats {
		if strings.HasPrefix(s.Technique, "suda") {
			if sudaFirst.Technique == "" {
				sudaFirst = s
			}
			sudaLast = s
		}
	}
	if sudaLast.RiskEval < sudaFirst.RiskEval {
		t.Errorf("SUDA cost shrank with more QIs: %v -> %v",
			sudaFirst.RiskEval, sudaLast.RiskEval)
	}
	var b strings.Builder
	RenderFig7f(&b, stats)
	if !strings.Contains(b.String(), "QIs") {
		t.Error("render header missing")
	}
}
