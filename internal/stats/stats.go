// Package stats provides the descriptive statistics used by the trace
// analyzer and the experiment harness: moments, quantiles, empirical CDFs,
// correlation coefficients, linear regression and histograms.
//
// All functions operate on float64 slices, never mutate their inputs unless
// documented, and return NaN (not an error) for undefined quantities such as
// the mean of an empty sample, mirroring the conventions of the math package.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs. The sum of an empty slice is 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or NaN if xs has
// fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs, or NaN if xs
// has fewer than two elements.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest element of xs, or NaN if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (type-7 estimator, the default in
// most statistics packages). It returns NaN if xs is empty or p is outside
// [0, 1]. The input slice is not modified.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

// quantileSorted is Quantile on an already-sorted slice.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}
