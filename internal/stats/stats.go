// Package stats provides the summary statistics, moment estimators,
// and regression helpers used by the experiment harness: empirical
// means and central moments (for validating the paper's moment bounds,
// Lemma 11 and Corollaries 15-16), quantiles and failure-rate
// estimates (for the high-probability bounds of Theorems 1, 21, 27,
// 32), log-log regression (for measuring decay exponents of
// re-collision probabilities, Lemmas 4, 20, 22, 25), and
// median-of-means amplification (Section 5.1.2 remark).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n), or 0
// for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance (dividing by
// n-1), or 0 for fewer than two samples.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return Variance(xs) * float64(len(xs)) / float64(len(xs)-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics. It panics on an empty slice
// or q outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0, 1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	min := math.Inf(1)
	for _, x := range xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Summary bundles the descriptive statistics reported by experiment
// tables.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	Max    float64
}

// Summarize computes a Summary of xs. It panics on an empty slice.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty slice")
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		P25:    Quantile(xs, 0.25),
		Median: Median(xs),
		P75:    Quantile(xs, 0.75),
		P95:    Quantile(xs, 0.95),
		Max:    Max(xs),
	}
}

// FailureRate returns the fraction of estimates falling outside the
// multiplicative band [(1-eps)*truth, (1+eps)*truth] — the empirical
// delta for the paper's (eps, delta) guarantees.
func FailureRate(estimates []float64, truth, eps float64) float64 {
	if len(estimates) == 0 {
		return 0
	}
	lo, hi := (1-eps)*truth, (1+eps)*truth
	fails := 0
	for _, e := range estimates {
		if e < lo || e > hi {
			fails++
		}
	}
	return float64(fails) / float64(len(estimates))
}

// RelErrors returns |estimate/truth - 1| for each estimate. It panics
// if truth is zero.
func RelErrors(estimates []float64, truth float64) []float64 {
	if truth == 0 {
		panic("stats: RelErrors with zero truth")
	}
	out := make([]float64, len(estimates))
	for i, e := range estimates {
		out[i] = math.Abs(e/truth - 1)
	}
	return out
}

// MedianOfMeans partitions xs into groups contiguous groups, averages
// each, and returns the median of the group means. This is the
// amplification the paper invokes in Section 5.1.2 to turn a
// constant-failure-probability estimator into a 1-delta one with
// log(1/delta) repetitions. groups must be >= 1; it is capped at
// len(xs).
func MedianOfMeans(xs []float64, groups int) float64 {
	if len(xs) == 0 {
		panic("stats: MedianOfMeans of empty slice")
	}
	if groups < 1 {
		panic(fmt.Sprintf("stats: MedianOfMeans groups must be >= 1, got %d", groups))
	}
	if groups > len(xs) {
		groups = len(xs)
	}
	means := make([]float64, 0, groups)
	size := len(xs) / groups
	rem := len(xs) % groups
	start := 0
	for gi := 0; gi < groups; gi++ {
		end := start + size
		if gi < rem {
			end++
		}
		means = append(means, Mean(xs[start:end]))
		start = end
	}
	return Median(means)
}

// TrimmedMean returns the mean of xs after dropping the trim fraction
// from each tail (floor(trim*n) order statistics per side) — the
// robust aggregator for one-sided contamination: up to a trim
// fraction of arbitrarily corrupted values cannot move it arbitrarily.
// trim must be in [0, 0.5); it panics on an empty slice, like the
// other order-statistic helpers.
func TrimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		panic("stats: TrimmedMean of empty slice")
	}
	if math.IsNaN(trim) || trim < 0 || trim >= 0.5 {
		panic(fmt.Sprintf("stats: TrimmedMean trim %v outside [0, 0.5)", trim))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(trim * float64(len(sorted)))
	return Mean(sorted[k : len(sorted)-k])
}

// Aggregator selects how a vector of per-agent estimates collapses to
// one number: the plain mean, or one of the robust alternatives the
// adversarial suite (internal/adversary, experiments E27+) compares
// against it. The robust aggregators trade a little honest-case
// variance for bounded sensitivity to Byzantine per-agent estimates.
type Aggregator int

const (
	// AggMean is the arithmetic mean — the paper's default, and the
	// aggregator an f-fraction of count-inflating adversaries poisons
	// in proportion to f times the inflation.
	AggMean Aggregator = iota
	// AggMedian is the per-agent median: robust up to one half
	// corrupted estimates.
	AggMedian
	// AggTrimmed is TrimmedMean at 25% per tail (the interquartile
	// mean): robust to a quarter corrupted per side.
	AggTrimmed
	// AggMedianOfMeans is MedianOfMeans over ceil(n/2) contiguous
	// pairs: each corrupted estimate poisons only its own pair, so the
	// median of the pair means tolerates up to a quarter corrupted
	// estimates while still averaging.
	AggMedianOfMeans
)

var aggregatorNames = [...]string{"mean", "median", "trimmed", "mom"}

// String returns the aggregator's wire name.
func (a Aggregator) String() string {
	if int(a) >= 0 && int(a) < len(aggregatorNames) {
		return aggregatorNames[a]
	}
	return fmt.Sprintf("Aggregator(%d)", int(a))
}

// Aggregators lists every Aggregator, mean first — the iteration
// order experiment tables and CLI output use.
func Aggregators() []Aggregator {
	return []Aggregator{AggMean, AggMedian, AggTrimmed, AggMedianOfMeans}
}

// Aggregate collapses xs with the selected aggregator (robust
// variants use their documented default parameters). It panics on an
// empty slice for the order-statistic aggregators, matching the
// functions it dispatches to.
func (a Aggregator) Aggregate(xs []float64) float64 {
	switch a {
	case AggMedian:
		return Median(xs)
	case AggTrimmed:
		return TrimmedMean(xs, 0.25)
	case AggMedianOfMeans:
		return MedianOfMeans(xs, (len(xs)+1)/2)
	default:
		return Mean(xs)
	}
}

// MeanCI95 returns the 95% normal-approximation confidence-interval
// half-width of the sample mean, 1.96 * s / sqrt(n) with s the
// unbiased sample standard deviation. Fewer than two samples carry no
// spread information, so the half-width is defined as 0 (a zero-width
// interval) rather than NaN or +Inf — downstream renderers (JSON
// results, sweep rows) always see a finite number.
func MeanCI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * math.Sqrt(SampleVariance(xs)/float64(len(xs)))
}

// LinearFit is the least-squares line y = Intercept + Slope*x together
// with the coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine fits a least-squares line to (xs, ys). It panics if the
// slices differ in length or hold fewer than two points.
func FitLine(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: FitLine length mismatch %d != %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		panic("stats: FitLine needs at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: FitLine with constant x")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = sxy * sxy / (sxx * syy)
	}
	return fit
}

// FitPowerLaw fits y = C * x^alpha by least squares in log-log space
// and returns (alpha, C, R2). Points with non-positive coordinates are
// skipped; it panics if fewer than two usable points remain. This is
// how the experiments measure re-collision decay exponents (e.g.
// alpha ~ -1 on the 2-D torus per Lemma 4, -1/2 on the ring per
// Lemma 20, -k/2 on the k-dimensional torus per Lemma 22).
func FitPowerLaw(xs, ys []float64) (alpha, c, r2 float64) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: FitPowerLaw length mismatch %d != %d", len(xs), len(ys)))
	}
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	fit := FitLine(lx, ly)
	return fit.Slope, math.Exp(fit.Intercept), fit.R2
}

// BinomialCI returns a 95% normal-approximation confidence interval
// half-width for a proportion estimated from n trials with the given
// empirical rate.
//
//antlint:testonly ROADMAP O12's conformance harness scores band coverage with it
func BinomialCI(rate float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return 1.96 * math.Sqrt(rate*(1-rate)/float64(n))
}
