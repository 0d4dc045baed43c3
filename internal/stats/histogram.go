package stats

import (
	"fmt"
	"math"
)

// Histogram counts samples into equal-width bins over [Lo, Hi). Samples
// outside the range are counted in Under/Over. Use NewHistogram to build one.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
// It panics if bins <= 0 or hi <= lo, since these are programming errors in
// experiment definitions rather than runtime conditions.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram bins must be positive, got %d", bins))
	}
	if hi <= lo || math.IsNaN(lo) || math.IsNaN(hi) {
		panic(fmt.Sprintf("stats: NewHistogram invalid range [%v, %v)", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add counts x into its bin.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) { // guard against FP rounding at the top edge
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of samples added, including out-of-range ones.
func (h *Histogram) Total() int { return h.total }
