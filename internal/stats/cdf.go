package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function built from a sample.
// The zero value is an empty distribution; use NewCDF to build one.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Len returns the number of samples backing the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples less than or equal to x.
// An empty CDF returns NaN.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x, so we
	// search for the first strictly-greater element instead.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-quantile of the sample (inverse CDF), using linear
// interpolation. It returns NaN for an empty CDF or p outside [0, 1].
func (c *CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	return quantileSorted(c.sorted, p)
}

// Mean returns the mean of the backing sample, or NaN if empty.
func (c *CDF) Mean() float64 { return Mean(c.sorted) }

// Point is one (X, P) coordinate of a CDF curve.
type Point struct {
	X float64 // sample value
	P float64 // cumulative probability P(X <= x)
}

// Points returns n evenly spaced points of the CDF curve suitable for
// plotting: the p-grid is {1/n, 2/n, ..., 1}. It returns nil for an empty
// CDF or n <= 0.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		p := float64(i) / float64(n)
		pts = append(pts, Point{X: quantileSorted(c.sorted, p), P: p})
	}
	return pts
}
