package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= eps
}

func TestSum(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"several", []float64{1, 2, 3, 4}, 10},
		{"negatives", []float64{-1, 1, -2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sum(tt.xs); got != tt.want {
				t.Errorf("Sum(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if got := Variance([]float64{1}); !math.IsNaN(got) {
		t.Errorf("Variance of single sample = %v, want NaN", got)
	}
	// Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, sum of squared deviations 32,
	// unbiased variance 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(want))
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if got := Min(nil); !math.IsNaN(got) {
		t.Errorf("Min(nil) = %v, want NaN", got)
	}
	if got := Max(nil); !math.IsNaN(got) {
		t.Errorf("Max(nil) = %v, want NaN", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.125, 1.5}, // interpolated halfway between 1 and 2
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(p=%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile(nil) = %v, want NaN", got)
	}
	if got := Quantile(xs, -0.1); !math.IsNaN(got) {
		t.Errorf("Quantile(p<0) = %v, want NaN", got)
	}
	if got := Quantile(xs, 1.1); !math.IsNaN(got) {
		t.Errorf("Quantile(p>1) = %v, want NaN", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

// Property: for any sample, Min <= Quantile(p) <= Max and Quantile is
// monotone in p.
func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		frac := func(p float64) float64 { return math.Abs(p) - math.Floor(math.Abs(p)) }
		a, b := frac(p1), frac(p2)
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		return qa >= Min(xs) && qb <= Max(xs) && qa <= qb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the running accumulator agrees with the batch formulas.
func TestRunningMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		var r Running
		for _, x := range xs {
			r.Add(x)
		}
		if r.N() != len(xs) {
			return false
		}
		if len(xs) == 0 {
			return math.IsNaN(r.Mean()) && math.IsNaN(r.Min()) && math.IsNaN(r.Max())
		}
		scale := math.Max(1, math.Abs(Mean(xs)))
		if !almostEqual(r.Mean(), Mean(xs), 1e-9*scale) {
			return false
		}
		if r.Min() != Min(xs) || r.Max() != Max(xs) {
			return false
		}
		if len(xs) >= 2 {
			v := Variance(xs)
			if !almostEqual(r.Variance(), v, 1e-6*math.Max(1, v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Variance()) {
		t.Error("empty Running should report NaN moments")
	}
	if r.Sum() != 0 {
		t.Errorf("empty Running Sum = %v, want 0", r.Sum())
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson perfect positive = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson perfect negative = %v, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if got := Pearson([]float64{1, 2}, []float64{1}); !math.IsNaN(got) {
		t.Errorf("Pearson mismatched lengths = %v, want NaN", got)
	}
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); !math.IsNaN(got) {
		t.Errorf("Pearson zero-variance x = %v, want NaN", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform has Spearman correlation exactly 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125} // x^3: nonlinear but monotone
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Spearman(x, x^3) = %v, want 1", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3}
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Spearman with ties = %v, want 1", got)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1 exactly
	fit := LinearFit(xs, ys)
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("LinearFit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("LinearFit R2 = %v, want 1", fit.R2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	fit := LinearFit([]float64{1, 1}, []float64{2, 3})
	if !math.IsNaN(fit.Slope) {
		t.Errorf("LinearFit zero-variance x slope = %v, want NaN", fit.Slope)
	}
	fit = LinearFit([]float64{1}, []float64{2})
	if !math.IsNaN(fit.Slope) {
		t.Errorf("LinearFit single point slope = %v, want NaN", fit.Slope)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := r.Float64() * 10
		xs = append(xs, x)
		ys = append(ys, 3*x-2+r.NormFloat64()*0.01)
	}
	fit := LinearFit(xs, ys)
	if !almostEqual(fit.Slope, 3, 0.01) || !almostEqual(fit.Intercept, -2, 0.02) {
		t.Errorf("noisy LinearFit = %+v, want approx slope 3 intercept -2", fit)
	}
	if fit.R2 < 0.999 {
		t.Errorf("noisy LinearFit R2 = %v, want > 0.999", fit.R2)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{10, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("CDF.At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if c.Len() != 4 {
		t.Errorf("CDF.Len = %d, want 4", c.Len())
	}
	if got := c.Mean(); got != 2.5 {
		t.Errorf("CDF.Mean = %v, want 2.5", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if got := c.At(1); !math.IsNaN(got) {
		t.Errorf("empty CDF.At = %v, want NaN", got)
	}
	if got := c.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty CDF.Quantile = %v, want NaN", got)
	}
	if pts := c.Points(10); pts != nil {
		t.Errorf("empty CDF.Points = %v, want nil", pts)
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	c := NewCDF(xs)
	pts := c.Points(20)
	if len(pts) != 20 {
		t.Fatalf("Points length = %d, want 20", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P <= pts[i-1].P {
			t.Errorf("Points not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
}

// Property: CDF.At is a valid distribution function — within [0,1],
// monotone, and consistent with Quantile.
func TestCDFProperties(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		if a > b {
			a, b = b, a
		}
		pa, pb := c.At(a), c.At(b)
		if pa < 0 || pa > 1 || pb < 0 || pb > 1 || pa > pb {
			return false
		}
		below := math.Nextafter(Min(xs), math.Inf(-1))
		return c.At(Max(xs)) == 1 && c.At(below) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCDFValuesIsCopy(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2})
	v := c.Values()
	v[0] = 99
	if c.Quantile(0) != 1 {
		t.Error("mutating Values() result affected the CDF")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 42} {
		h.Add(x)
	}
	if h.Under != 1 {
		t.Errorf("Under = %d, want 1", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("Over = %d, want 2", h.Over)
	}
	wantCounts := []int{2, 1, 1, 0, 1}
	for i, want := range wantCounts {
		if h.Counts[i] != want {
			t.Errorf("Counts[%d] = %d, want %d", i, h.Counts[i], want)
		}
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
}

func TestHistogramPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("zero bins", func() { NewHistogram(0, 1, 0) })
	assertPanics("inverted range", func() { NewHistogram(1, 0, 4) })
}
