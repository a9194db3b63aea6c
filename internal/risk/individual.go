package risk

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"vadasa/internal/mdb"
)

// Estimator selects how IndividualRisk turns a (sample frequency f,
// estimated population frequency ΣW) pair into a risk.
type Estimator int

// Estimators for the individual-risk posterior.
const (
	// Ratio is the simple estimator of Algorithm 5: risk = f/ΣW, i.e.
	// λ = ΣW/f in Equation 1.
	Ratio Estimator = iota
	// PosteriorSeries computes the exact posterior mean E[1/F | f] under
	// the negative-binomial model of Benedetti and Franconi: by an
	// f-step recurrence where p = f/ΣW < 1/2 (the closed form for f=1 at
	// any p), by series summation above.
	PosteriorSeries
	// MonteCarlo estimates E[1/F | f] by sampling from the actual
	// negative-binomial distribution — the “off-the-shelf statistical
	// library” configuration whose cost dominates Figure 7e.
	MonteCarlo
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	switch e {
	case Ratio:
		return "ratio"
	case PosteriorSeries:
		return "posterior-series"
	case MonteCarlo:
		return "monte-carlo"
	default:
		return fmt.Sprintf("Estimator(%d)", int(e))
	}
}

// IndividualRisk is the Bayesian individual risk of Algorithm 5: the
// frequency F of a combination in the population is unknown, so the risk
// 1/F is estimated from the posterior of F given the sample frequency f,
// with the combination's weight sum ΣW as the population-frequency estimate.
type IndividualRisk struct {
	Estimator Estimator
	// Attrs optionally restricts the evaluation to a subset of the
	// quasi-identifiers.
	Attrs []string
	// Samples is the Monte-Carlo sample count (default 200).
	Samples int
	// Seed makes Monte-Carlo runs reproducible.
	Seed int64
}

// Name implements Assessor.
func (a IndividualRisk) Name() string {
	return fmt.Sprintf("individual-risk(%s)", a.Estimator)
}

func (IndividualRisk) check() error { return nil }

// Grouping implements IncrementalAssessor.
func (a IndividualRisk) Grouping(d *mdb.Dataset) (mdb.Grouping, error) {
	return groupBy(d, a.Attrs)
}

// ScoreGroup implements GroupScorer. The posterior estimate is a pure
// function of the (f, ΣW) pair — the Monte-Carlo estimator derives its
// generator seed from the pair itself — so the result is independent of
// where and in what order the call runs; the scoring loop memoizes the
// Monte-Carlo estimate per pair, ScoreGroup itself never caches. Each
// estimate is bounded (at most largeFrequency recurrence steps, series
// cutoffs, fixed sample counts) and cannot stall cancellation for long.
func (a IndividualRisk) ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error) {
	if err := checkGroupWeight(g, rowID); err != nil {
		return 0, err
	}
	samples := a.Samples
	if samples <= 0 {
		samples = 200
	}
	return a.estimate(g.Freq, g.WeightSum, samples), nil
}

// Assess implements Assessor.
func (a IndividualRisk) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(context.Background(), a, d, sem)
}

// AssessContext implements ContextAssessor.
func (a IndividualRisk) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(ctx, a, d, sem)
}

// Rescore implements IncrementalAssessor.
func (a IndividualRisk) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	return rescoreGroups(ctx, a, idx, dirty, prev)
}

// estimate is a pure function of the (f, ΣW) pair: the Monte-Carlo
// estimator seeds a private generator from the configured Seed and the pair
// itself rather than drawing from a shared stream. That makes every
// estimate independent of evaluation order — the property the incremental
// and parallel re-scoring paths need to stay bit-identical to a sequential
// full assessment — while keeping runs reproducible for a fixed Seed.
func (a IndividualRisk) estimate(f int, popEst float64, samples int) float64 {
	p := float64(f) / popEst
	if p >= 1 {
		// The sample exhausts the estimated population: F = f exactly.
		return clamp01(1 / float64(f))
	}
	switch a.Estimator {
	case Ratio:
		return clamp01(p)
	case PosteriorSeries:
		return clamp01(posteriorMean(f, p))
	case MonteCarlo:
		if f > largeFrequency {
			return clamp01(taylorMean(f, p))
		}
		rng := rand.New(rand.NewSource(pairSeed(a.Seed, f, popEst)))
		return clamp01(monteCarloMean(f, p, rng, samples))
	default:
		return clamp01(p)
	}
}

// pairSeed mixes the configured seed with the estimate's (f, ΣW) pair
// through two rounds of splitmix64 finalization, so nearby pairs land on
// uncorrelated generator streams.
func pairSeed(seed int64, f int, w float64) int64 {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	h := mix(uint64(seed) + 0x9e3779b97f4a7c15)
	h = mix(h ^ uint64(f))
	h = mix(h ^ math.Float64bits(w))
	return int64(h)
}

// largeFrequency is the sample frequency above which the posterior of 1/F is
// so concentrated that a second-order Taylor expansion is indistinguishable
// from the exact mean; it also bounds the series/sampling cost on the big
// safe groups that dominate a dataset.
const largeFrequency = 50

// posteriorMean computes E[1/F | f] where F follows the shifted negative
// binomial P(F=j) = C(j-1, f-1) p^f (1-p)^(j-f) for j >= f.
func posteriorMean(f int, p float64) float64 {
	if f > largeFrequency {
		return taylorMean(f, p)
	}
	q := 1 - p
	if a := p / q; f == 1 || a < 1 {
		// E[1/F] = ∫₀¹ E[t^(F-1)] dt, and u = pt/(1-qt) turns it into
		// a·I_f with I_k = ∫₀¹ u^(k-1)/(u+a) du: I_1 = ln(1/p) and
		// I_(k+1) = 1/k − a·I_k. Each step multiplies the error carried in
		// I_k by a, so the recurrence runs forward only while a < 1
		// (p < 1/2); f = 1 takes no step and is the closed form at any p.
		in := math.Log(1 / p)
		for k := 1; k < f; k++ {
			in = 1/float64(k) - a*in
		}
		return a * in
	}
	// Series: term(j) = C(j-1,f-1) p^f q^(j-f); term(j+1)/term(j) =
	// q·j/(j-f+1). Start at j=f with term p^f.
	term := math.Pow(p, float64(f))
	sum := 0.0
	for j := f; ; j++ {
		sum += term / float64(j)
		term *= q * float64(j) / float64(j-f+1)
		if term/float64(j+1) < 1e-14 && float64(j) > 4*float64(f)/p {
			break
		}
		if j > 50_000_000 {
			break
		}
	}
	return sum
}

// taylorMean is the second-order expansion E[1/F] ≈ 1/μ + σ²/μ³ of the
// negative-binomial posterior, accurate for concentrated posteriors.
func taylorMean(f int, p float64) float64 {
	mu := float64(f) / p
	sigma2 := float64(f) * (1 - p) / (p * p)
	return 1/mu + sigma2/(mu*mu*mu)
}

// monteCarloMean samples F as a sum of f geometric variables.
func monteCarloMean(f int, p float64, rng *rand.Rand, samples int) float64 {
	lnq := math.Log(1 - p)
	total := 0.0
	for s := 0; s < samples; s++ {
		var jf float64
		for i := 0; i < f; i++ {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			jf += 1 + math.Floor(math.Log(u)/lnq)
		}
		total += 1 / jf
	}
	return total / float64(samples)
}
