package risk

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vadasa/internal/mdb"
	"vadasa/internal/synth"
)

func TestReIdentificationFigure1(t *testing.T) {
	d := synth.InflationGrowth()
	rs, err := ReIdentification{}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	// Section 2.2: risk is highest for tuple 15 (0.03) and lowest for
	// tuple 7 (0.003); tuple 4's unique combination gives 0.016.
	cases := []struct {
		row  int
		want float64
	}{
		{15, 1.0 / 30}, {7, 1.0 / 300}, {4, 1.0 / 60},
	}
	for _, c := range cases {
		if got := rs[c.row-1]; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tuple %d risk = %g, want %g", c.row, got, c.want)
		}
	}
	hi, lo := 0, 0
	for i := range rs {
		if rs[i] > rs[hi] {
			hi = i
		}
		if rs[i] < rs[lo] {
			lo = i
		}
	}
	if hi != 14 || lo != 6 {
		t.Errorf("extremes at tuples %d/%d, want 15/7", hi+1, lo+1)
	}
}

func TestReIdentificationGroupsShareRisk(t *testing.T) {
	d := synth.Figure5()
	rs, err := ReIdentification{}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	// Rows 2,3 share a combination (weights 1 each): risk 1/2 for both.
	if rs[1] != 0.5 || rs[2] != 0.5 {
		t.Errorf("shared-group risks = %g, %g, want 0.5", rs[1], rs[2])
	}
	if rs[0] != 1 { // unique combination, weight 1
		t.Errorf("unique row risk = %g, want 1", rs[0])
	}
}

func TestReIdentificationNeedsWeight(t *testing.T) {
	d := mdb.NewDataset("noW", []mdb.Attribute{{Name: "A", Category: mdb.QuasiIdentifier}})
	d.Append(&mdb.Row{Values: []mdb.Value{mdb.Const("x")}})
	if _, err := (ReIdentification{}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Fatal("missing weight attribute not detected")
	}
}

func TestAttrsSubset(t *testing.T) {
	d := synth.InflationGrowth()
	// Restricting q̂ to Area only: every tuple shares its area with many
	// others, so risks drop below the all-QI risks.
	all, err := ReIdentification{}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	area, err := ReIdentification{Attrs: []string{"Area"}}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		if area[i] > all[i]+1e-12 {
			t.Fatalf("tuple %d: area-only risk %g exceeds full risk %g", i+1, area[i], all[i])
		}
	}
	if _, err := (ReIdentification{Attrs: []string{"Nope"}}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Fatal("unknown attribute not detected")
	}
}

func TestNoQuasiIdentifiers(t *testing.T) {
	d := mdb.NewDataset("noQI", []mdb.Attribute{{Name: "A", Category: mdb.NonIdentifying}})
	if _, err := (KAnonymity{K: 2}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Fatal("dataset without quasi-identifiers not detected")
	}
}

func TestKAnonymityFigure5(t *testing.T) {
	d := synth.Figure5()
	rs, err := KAnonymity{K: 2}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	want := []float64{1, 0, 0, 0, 0, 1, 1}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("row %d risk = %g, want %g", i+1, rs[i], want[i])
		}
	}
	// Suppressing tuple 1's Sector makes it 2-anonymous under maybe-match.
	d.Rows[0].Values[d.AttrIndex("Sector")] = d.Nulls.Fresh()
	rs, _ = KAnonymity{K: 2}.Assess(d, mdb.MaybeMatch)
	if rs[0] != 0 {
		t.Error("suppressed tuple still risky under maybe-match")
	}
	rs, _ = KAnonymity{K: 2}.Assess(d, mdb.StandardNulls)
	if rs[0] != 1 {
		t.Error("suppressed tuple not risky under standard semantics")
	}
}

func TestKAnonymityValidatesK(t *testing.T) {
	d := synth.Figure5()
	if _, err := (KAnonymity{K: 1}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Fatal("K=1 accepted")
	}
}

func TestIndividualRiskRatio(t *testing.T) {
	d := synth.InflationGrowth()
	rs, err := IndividualRisk{Estimator: Ratio}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	// Tuple 15 is unique with weight 30: ratio risk f/ΣW = 1/30.
	if math.Abs(rs[14]-1.0/30) > 1e-12 {
		t.Errorf("tuple 15 ratio risk = %g, want %g", rs[14], 1.0/30)
	}
}

func TestPosteriorClosedFormF1(t *testing.T) {
	// f=1: E[1/F] = (p/q)·ln(1/p), bit for bit, on either side of p = 1/2.
	for _, p := range []float64{1e-8, 1.0 / 300, 0.1, 0.4999, 0.5, 0.9, 0.999999} {
		want := p / (1 - p) * math.Log(1/p)
		if got := posteriorMean(1, p); got != want {
			t.Errorf("posteriorMean(1, %g) = %v, want %v", p, got, want)
		}
	}
}

// posteriorGrid is p log-spaced over [1e-8, 1/2), the recurrence's region,
// in 64 steps.
func posteriorGrid() []float64 {
	ps := make([]float64, 64)
	for i := range ps {
		ps[i] = 1e-8 * math.Pow(0.5/1e-8, float64(i)/64)
	}
	return ps
}

// seriesGrid is p over [1/2, 1), where the series runs.
var seriesGrid = []float64{0.5, 0.55, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999, 0.999999}

// ulps is the distance between two positive floats in units in the last place.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		return y - x
	}
	return x - y
}

// posteriorMean against the math/big references of reference_test.go, which
// first agree with each other to far beyond float64.
func TestPosteriorMatchesReference(t *testing.T) {
	for _, f := range []int{1, 2, 7, 30, 50} {
		for _, p := range []float64{0.1, 0.3, 0.49, 0.5, 0.7, 0.95} {
			rec, ser := ReferencePosterior(f, p), ReferencePosteriorSeries(f, p)
			diff := new(big.Float).Sub(rec, ser)
			if diff.Sign() != 0 && diff.Quo(diff, ser).MantExp(nil) > -400 {
				t.Fatalf("f=%d p=%g: the references disagree: recurrence %s, series %s", f, p, rec.Text('g', 40), ser.Text('g', 40))
			}
		}
	}
	rel := func(f int, p float64) (got, want, err float64) {
		got = posteriorMean(f, p)
		want, _ = ReferencePosterior(f, p).Float64()
		return got, want, math.Abs(got-want) / want
	}
	for f := 1; f <= largeFrequency; f++ {
		for _, p := range posteriorGrid() {
			if got, want, _ := rel(f, p); ulps(got, want) > 4 {
				t.Errorf("posteriorMean(%d, %g) = %v, reference %v: %d ulp apart", f, p, got, want, ulps(got, want))
			}
		}
		// Approaching 1/2 the error a step carries shrinks by a factor a → 1
		// only: up to ~10² ulp at f = 50, still under the series' error above.
		for _, p := range []float64{0.45, 0.48, 0.495, 0.499, 0.4999, 0.49999999} {
			if got, want, err := rel(f, p); err > 1e-13 {
				t.Errorf("posteriorMean(%d, %g) = %v, reference %v: relative error %g", f, p, got, want, err)
			}
		}
		if f == 1 {
			continue // the closed form; TestPosteriorClosedFormF1
		}
		for _, p := range seriesGrid {
			if got, want, err := rel(f, p); err > 1e-12 {
				t.Errorf("posteriorMean(%d, %g) = %v, reference %v: relative error %g", f, p, got, want, err)
			}
		}
	}
}

// More population per sampled tuple (smaller p) or more sampled tuples like
// it (larger f) never raise the risk.
func TestPosteriorMonotone(t *testing.T) {
	ps := append(posteriorGrid(), seriesGrid...)
	for f := 1; f <= largeFrequency; f++ {
		for i, p := range ps {
			got := posteriorMean(f, p)
			if i > 0 && got < posteriorMean(f, ps[i-1]) {
				t.Errorf("f=%d: posteriorMean falls from %v at p=%g to %v at p=%g", f, posteriorMean(f, ps[i-1]), ps[i-1], got, p)
			}
			if f > 1 && got > posteriorMean(f-1, p) {
				t.Errorf("p=%g: posteriorMean rises from %v at f=%d to %v at f=%d", p, posteriorMean(f-1, p), f-1, got, f)
			}
		}
	}
}

func TestPosteriorBounds(t *testing.T) {
	// Jensen: E[1/F] >= 1/E[F] = p/f; and E[1/F] <= 1/f (F >= f).
	for f := 1; f <= 60; f += 7 {
		for _, p := range []float64{0.01, 0.2, 0.7, 0.95} {
			got := posteriorMean(f, p)
			lo, hi := p/float64(f), 1/float64(f)
			if got < lo-1e-9 || got > hi+1e-9 {
				t.Errorf("posteriorMean(%d, %g) = %g outside [%g, %g]", f, p, got, lo, hi)
			}
		}
	}
}

func TestMonteCarloApproximatesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		f int
		p float64
	}{{1, 0.3}, {2, 0.1}, {4, 0.5}} {
		want := posteriorMean(c.f, c.p)
		got := monteCarloMean(c.f, c.p, rng, 20000)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("monteCarloMean(%d, %g) = %g, series %g", c.f, c.p, got, want)
		}
	}
}

// A group weight sum no estimate can be drawn from is refused, not scored —
// a NaN risk exceeds no threshold, and an infinite sum makes f/ΣW zero —
// also on a dataset a library caller built without mdb.ReadCSV.
func TestGroupWeightMustBeFinitePositive(t *testing.T) {
	measures := []groupMeasure{ReIdentification{}, IndividualRisk{Estimator: Ratio},
		IndividualRisk{Estimator: PosteriorSeries}, IndividualRisk{Estimator: MonteCarlo}}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		for _, m := range measures {
			if r, err := m.ScoreGroup(mdb.GroupInfo{Freq: 2, WeightSum: w}, 4); err == nil ||
				!strings.Contains(err.Error(), "risk: row 4 has non-") {
				t.Errorf("%s: ΣW=%g scored %g (%v)", m.Name(), w, r, err)
			}
		}
	}
	d := synth.InflationGrowth()
	d.Rows[3].Weight = math.NaN()
	for _, m := range measures {
		if _, err := m.Assess(d, mdb.MaybeMatch); err == nil {
			t.Errorf("%s: assessed a NaN weight", m.Name())
		}
	}
}

func TestIndividualRiskExhaustedPopulation(t *testing.T) {
	// ΣW = f means the sample is the population: risk = 1/f.
	d := mdb.NewDataset("tiny", []mdb.Attribute{
		{Name: "A", Category: mdb.QuasiIdentifier},
		{Name: "W", Category: mdb.Weight},
	})
	d.Append(&mdb.Row{Values: []mdb.Value{mdb.Const("x"), mdb.Const("1")}, Weight: 1})
	for _, est := range []Estimator{Ratio, PosteriorSeries, MonteCarlo} {
		rs, err := IndividualRisk{Estimator: est}.Assess(d, mdb.MaybeMatch)
		if err != nil {
			t.Fatalf("%v: %v", est, err)
		}
		if rs[0] != 1 {
			t.Errorf("%v: risk = %g, want 1", est, rs[0])
		}
	}
}

func TestIndividualRiskDeterministicSeed(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 300, QIs: 4, Dist: synth.DistU, Seed: 9})
	a := IndividualRisk{Estimator: MonteCarlo, Seed: 3, Samples: 50}
	r1, err := a.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := a.Assess(d, mdb.MaybeMatch)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("Monte-Carlo assessment not reproducible with fixed seed")
		}
	}
}

func TestTaylorCloseToSeriesAtBoundary(t *testing.T) {
	f := largeFrequency
	for _, p := range []float64{0.1, 0.5, 0.9} {
		series := posteriorMean(f, p) // exact path (f == largeFrequency)
		taylor := taylorMean(f, p)
		if rel := math.Abs(series-taylor) / series; rel > 0.01 {
			t.Errorf("f=%d p=%g: series %g vs taylor %g (rel %g)", f, p, series, taylor, rel)
		}
	}
}

func TestAssessorNames(t *testing.T) {
	for _, a := range []Assessor{
		ReIdentification{}, KAnonymity{K: 2},
		IndividualRisk{Estimator: PosteriorSeries}, SUDA{Threshold: 3},
	} {
		if a.Name() == "" {
			t.Errorf("%T has empty name", a)
		}
	}
}

func TestSummarize(t *testing.T) {
	risks := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	s := Summarize(risks, 0.5)
	if s.Count != 6 || s.OverThreshold != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Min != 0 || s.Max != 1 || math.Abs(s.Median-0.5) > 1e-12 {
		t.Fatalf("quantiles = %+v", s)
	}
	if math.Abs(s.Mean-0.5) > 1e-12 {
		t.Fatalf("mean = %g", s.Mean)
	}
	empty := Summarize(nil, 0.5)
	if empty.Count != 0 || empty.OverThreshold != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	one := Summarize([]float64{0.7}, 0.5)
	if one.Min != 0.7 || one.Max != 0.7 || one.Median != 0.7 || one.OverThreshold != 1 {
		t.Fatalf("singleton summary = %+v", one)
	}
}

func TestSummaryRender(t *testing.T) {
	var b strings.Builder
	Summarize([]float64{0.1, 0.9}, 0.5).Render(&b)
	out := b.String()
	if !strings.Contains(out, "over threshold: 1") || !strings.Contains(out, "median") {
		t.Fatalf("render = %q", out)
	}
}

func TestEstimateWeights(t *testing.T) {
	d := synth.Figure5()
	if err := EstimateWeights(d, 30); err != nil {
		t.Fatalf("EstimateWeights: %v", err)
	}
	// Rows 2,3 share a combination (freq 2): weight 60; unique rows: 30.
	if d.Rows[1].Weight != 60 || d.Rows[0].Weight != 30 {
		t.Fatalf("weights = %g, %g; want 60, 30", d.Rows[1].Weight, d.Rows[0].Weight)
	}
	// Re-identification risk is now well-defined: 1/30 for unique rows.
	rs, err := ReIdentification{}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rs[0]-1.0/30) > 1e-12 {
		t.Fatalf("risk after estimation = %g", rs[0])
	}
}

func TestEstimateWeightsUpdatesColumn(t *testing.T) {
	d := synth.InflationGrowth()
	if err := EstimateWeights(d, 10); err != nil {
		t.Fatal(err)
	}
	w := d.WeightIndex()
	if d.Rows[0].Values[w].Constant() != "10" {
		t.Fatalf("weight column = %q", d.Rows[0].Values[w].Constant())
	}
}

func TestEstimateWeightsValidation(t *testing.T) {
	d := synth.Figure5()
	if err := EstimateWeights(d, 0); err == nil {
		t.Error("zero scale accepted")
	}
	noQI := mdb.NewDataset("x", []mdb.Attribute{{Name: "A"}})
	if err := EstimateWeights(noQI, 10); err == nil {
		t.Error("dataset without QIs accepted")
	}
	// A scale whose weights break mdb's intake rule — NaN, +Inf, or one that
	// overflows at sample frequency 2 — is refused before a weight is written.
	for _, scale := range []float64{math.NaN(), math.Inf(1), 1e308} {
		d := synth.Figure5()
		want := d.Clone()
		if err := EstimateWeights(d, scale); err == nil {
			t.Errorf("scale %g accepted", scale)
		}
		for i, r := range d.Rows {
			if r.Weight != want.Rows[i].Weight || !slices.Equal(r.Values, want.Rows[i].Values) {
				t.Fatalf("scale %g: row %d weight rewritten", scale, i)
			}
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
	}
}
