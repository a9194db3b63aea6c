package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a latency tail may be reported at, highest
// first. A percentile is only meaningful with enough samples beyond it.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it; with too few samples for any tail it
// falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// rankOf is the 1-based nearest-rank position of percentile p among n sorted
// samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps 99.9% of 10000 at rank 9990: 99.9 is not a binary
	// fraction and the product lands a hair above the integer.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of the samples, 0 for
// none. The input is not modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// lowerQuartile is the nearest-rank 25th percentile, the statistic every
// timing of a run is summarised by. On the machines this benchmark runs on,
// a virtual CPU is slowed by up to a half for seconds at a time by whatever
// else its host is doing, so how much of a run was disturbed differs from run
// to run and a median over the run flips between the two speeds. Disturbance
// only ever adds time: the lower quartile of repeated identical work stays on
// the undisturbed speed as long as a quarter of the repetitions were, and
// with the few repetitions a run can afford it is steadier than the minimum.
func lowerQuartile(samples []float64) float64 { return percentile(samples, 25) }

// classQuartile summarises a latency class whose distinct requests differ in
// cost: the lower quartile of each request's repetitions, averaged over the
// requests. Every request weighs the same however often the schedule repeats
// it, and no request sits alone at the median of a mixed distribution.
func classQuartile(byKey map[string][]float64) float64 {
	if len(byKey) == 0 {
		return 0
	}
	var sum float64
	for _, v := range byKey {
		sum += lowerQuartile(v)
	}
	return sum / float64(len(byKey))
}

// median is the interpolating median (mean of the middle two for even n),
// the statistic repeated runs are summarised by.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// (method "exclusive") computes them, so a spread printed here matches the
// one the acceptance driver derives from the same values.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 { // quantile i of 4
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
