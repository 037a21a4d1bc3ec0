package stats

import (
	"math"
	"testing"
	"testing/quick"

	"antdensity/internal/rng"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{name: "empty", xs: nil, want: 0},
		{name: "single", xs: []float64{3}, want: 3},
		{name: "several", xs: []float64{1, 2, 3, 4}, want: 2.5},
		{name: "negative", xs: []float64{-1, 1}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			approx(t, "Mean", Mean(tt.xs), tt.want, 1e-12)
		})
	}
}

func TestVariance(t *testing.T) {
	approx(t, "Variance", Variance([]float64{1, 2, 3, 4}), 1.25, 1e-12)
	approx(t, "Variance single", Variance([]float64{5}), 0, 0)
	approx(t, "SampleVariance", SampleVariance([]float64{1, 2, 3, 4}), 5.0/3, 1e-12)
	approx(t, "StdDev", StdDev([]float64{2, 4}), 1, 1e-12)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	approx(t, "q0", Quantile(xs, 0), 1, 1e-12)
	approx(t, "q1", Quantile(xs, 1), 4, 1e-12)
	approx(t, "median", Median(xs), 2.5, 1e-12)
	approx(t, "q0.25", Quantile(xs, 0.25), 1.75, 1e-12)
	approx(t, "single", Quantile([]float64{7}, 0.9), 7, 0)

	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { Quantile(nil, 0.5) }},
		{"below", func() { Quantile([]float64{1}, -0.1) }},
		{"above", func() { Quantile([]float64{1}, 1.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	approx(t, "Min", Min(xs), -2, 0)
	approx(t, "Max", Max(xs), 7, 0)
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be +-Inf")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 {
		t.Errorf("N = %d", s.N)
	}
	approx(t, "Mean", s.Mean, 3, 1e-12)
	approx(t, "Median", s.Median, 3, 1e-12)
	approx(t, "Min", s.Min, 1, 0)
	approx(t, "Max", s.Max, 5, 0)
}

func TestFailureRate(t *testing.T) {
	ests := []float64{0.9, 1.0, 1.1, 1.5, 0.5}
	// Band (1 +- 0.2) around truth 1: accepts 0.9, 1.0, 1.1.
	approx(t, "FailureRate", FailureRate(ests, 1, 0.2), 0.4, 1e-12)
	approx(t, "FailureRate empty", FailureRate(nil, 1, 0.2), 0, 0)
	approx(t, "FailureRate all pass", FailureRate([]float64{1}, 1, 0.01), 0, 0)
}

func TestRelErrors(t *testing.T) {
	got := RelErrors([]float64{1.1, 0.8}, 1)
	approx(t, "RelErrors[0]", got[0], 0.1, 1e-12)
	approx(t, "RelErrors[1]", got[1], 0.2, 1e-12)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RelErrors with zero truth did not panic")
			}
		}()
		RelErrors([]float64{1}, 0)
	}()
}

func TestMedianOfMeans(t *testing.T) {
	// One wild outlier among nine good samples: a 3-group median of
	// means suppresses it.
	xs := []float64{1, 1, 1, 1000, 1, 1, 1, 1, 1}
	mom := MedianOfMeans(xs, 3)
	if mom != 1 {
		t.Errorf("MedianOfMeans = %v, want 1", mom)
	}
	// groups > len clamps.
	approx(t, "clamped", MedianOfMeans([]float64{2, 4}, 10), 3, 1e-12)
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit := FitLine(xs, ys)
	approx(t, "Slope", fit.Slope, 2, 1e-12)
	approx(t, "Intercept", fit.Intercept, 1, 1e-12)
	approx(t, "R2", fit.R2, 1, 1e-12)
}

func TestFitLineNoisy(t *testing.T) {
	s := rng.New(1)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 5 - 0.5*xs[i] + 0.1*s.NormFloat64()
	}
	fit := FitLine(xs, ys)
	approx(t, "Slope", fit.Slope, -0.5, 0.01)
	approx(t, "Intercept", fit.Intercept, 5, 0.2)
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", fit.R2)
	}
}

func TestFitPowerLaw(t *testing.T) {
	// y = 3 x^-1 with zero noise; include a zero point to test skipping.
	xs := []float64{1, 2, 4, 8, 0}
	ys := []float64{3, 1.5, 0.75, 0.375, 0}
	alpha, c, r2 := FitPowerLaw(xs, ys)
	approx(t, "alpha", alpha, -1, 1e-10)
	approx(t, "c", c, 3, 1e-10)
	approx(t, "r2", r2, 1, 1e-10)
}

func TestBinomialCI(t *testing.T) {
	half := BinomialCI(0.5, 10000)
	approx(t, "BinomialCI", half, 1.96*0.005, 1e-6)
	if !math.IsInf(BinomialCI(0.5, 0), 1) {
		t.Error("BinomialCI with n=0 should be +Inf")
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	// Property: for any data, Min <= Quantile(q) <= Max.
	s := rng.New(2)
	f := func(n uint8, q8 uint8) bool {
		n = n%50 + 1
		q := float64(q8) / 255
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.NormFloat64()
		}
		v := Quantile(xs, q)
		return v >= Min(xs)-1e-12 && v <= Max(xs)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVariancePropertyNonNegative(t *testing.T) {
	s := rng.New(3)
	f := func(n uint8) bool {
		xs := make([]float64, n%40+2)
		for i := range xs {
			xs[i] = s.NormFloat64() * 100
		}
		return Variance(xs) >= 0 && SampleVariance(xs) >= Variance(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanPropertyShiftInvariance(t *testing.T) {
	// Property: Mean(xs + c) == Mean(xs) + c and Variance unchanged.
	s := rng.New(4)
	f := func(n uint8, shift int8) bool {
		xs := make([]float64, n%30+2)
		ys := make([]float64, len(xs))
		c := float64(shift)
		for i := range xs {
			xs[i] = s.NormFloat64()
			ys[i] = xs[i] + c
		}
		return math.Abs(Mean(ys)-Mean(xs)-c) < 1e-9 &&
			math.Abs(Variance(ys)-Variance(xs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanCI95(t *testing.T) {
	// The n < 2 edge case is a zero-width interval, never NaN or Inf:
	// structured renderers (JSON results, sweep rows) must always see
	// a finite number.
	if ci := MeanCI95(nil); ci != 0 {
		t.Errorf("MeanCI95(nil) = %v, want 0 (zero-width)", ci)
	}
	if ci := MeanCI95([]float64{3}); ci != 0 {
		t.Errorf("MeanCI95(single) = %v, want 0 (zero-width)", ci)
	}
	// n samples of {0, 2} alternating: sample variance 4n/(4(n-1)) ->
	// known closed form; check against direct computation.
	xs := []float64{0, 2, 0, 2, 0, 2, 0, 2}
	want := 1.96 * math.Sqrt(SampleVariance(xs)/float64(len(xs)))
	if got := MeanCI95(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanCI95 = %v, want %v", got, want)
	}
	if got := MeanCI95(xs); got <= 0 {
		t.Errorf("MeanCI95 = %v, want positive", got)
	}
	// Width shrinks like 1/sqrt(n): quadrupling the sample count
	// should roughly halve the CI on iid-like data.
	big := make([]float64, 4*len(xs))
	for i := range big {
		big[i] = xs[i%len(xs)]
	}
	if r := MeanCI95(big) / MeanCI95(xs); r < 0.4 || r > 0.6 {
		t.Errorf("CI shrink ratio = %v, want ~0.5", r)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	// trim 0.2 on n=5 drops one order statistic per tail: mean(2,3,4).
	if got := TrimmedMean(xs, 0.2); math.Abs(got-3) > 1e-12 {
		t.Errorf("TrimmedMean = %v, want 3", got)
	}
	// trim 0 is the plain mean.
	if got, want := TrimmedMean(xs, 0), Mean(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("TrimmedMean(0) = %v, want %v", got, want)
	}
	// Order-insensitive.
	if got := TrimmedMean([]float64{100, 4, 1, 3, 2}, 0.2); math.Abs(got-3) > 1e-12 {
		t.Errorf("shuffled TrimmedMean = %v, want 3", got)
	}
	for _, bad := range []float64{-0.1, 0.5, 0.9, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TrimmedMean(trim=%v) did not panic", bad)
				}
			}()
			TrimmedMean(xs, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TrimmedMean(empty) did not panic")
			}
		}()
		TrimmedMean(nil, 0.25)
	}()
}

func TestAggregatorDispatch(t *testing.T) {
	if Aggregators()[0] != AggMean {
		t.Error("Aggregators() must lead with the mean")
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := AggMean.Aggregate(xs); math.Abs(got-Mean(xs)) > 1e-12 {
		t.Errorf("AggMean = %v", got)
	}
	if got := AggMedian.Aggregate(xs); math.Abs(got-Median(xs)) > 1e-12 {
		t.Errorf("AggMedian = %v", got)
	}
	if got := AggTrimmed.Aggregate(xs); math.Abs(got-TrimmedMean(xs, 0.25)) > 1e-12 {
		t.Errorf("AggTrimmed = %v", got)
	}
	if got := AggMedianOfMeans.Aggregate(xs); math.Abs(got-MedianOfMeans(xs, 4)) > 1e-12 {
		t.Errorf("AggMedianOfMeans = %v", got)
	}
}

// TestRobustAggregatorsResistContamination plants a 20% fraction of
// wild outliers in an otherwise concentrated sample; every robust
// aggregator must stay near the honest location while the mean is
// dragged away — the property the adversarial experiments measure
// end to end.
func TestRobustAggregatorsResistContamination(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = 0.1 + 0.001*float64(i%7)
	}
	for i := 0; i < 8; i++ { // 20%, scattered through the slice
		xs[i*5] = 50
	}
	if mean := AggMean.Aggregate(xs); mean < 5 {
		t.Fatalf("contaminated mean = %v, expected to be dragged above 5", mean)
	}
	for _, a := range []Aggregator{AggMedian, AggTrimmed, AggMedianOfMeans} {
		if got := a.Aggregate(xs); math.Abs(got-0.1) > 0.05 {
			t.Errorf("%v = %v, want ~0.1 despite contamination", a, got)
		}
	}
}
