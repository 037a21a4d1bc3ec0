package core

import (
	"fmt"
	"math"
)

// This file provides closed-form evaluations of the paper's bounds.
// The paper's statements carry unspecified universal constants (c1,
// c2, w, ...); the calculators below use constant 1 unless a Constant
// parameter is given, because the experiments compare *shapes*
// (scaling exponents, crossovers) rather than absolute values.

// TheoremOneEpsilon returns the Theorem 1 accuracy level on the
// two-dimensional torus after t rounds at density d with failure
// probability delta, up to the universal constant c1:
//
//	eps = c1 * sqrt(log(1/delta) / (t*d)) * log(2t).
func TheoremOneEpsilon(t int, d, delta, c1 float64) float64 {
	validateRounds(t)
	validateProb("delta", delta)
	validateDensity(d)
	return c1 * math.Sqrt(math.Log(1/delta)/(float64(t)*d)) * math.Log(2*float64(t))
}

// TheoremOneRounds returns the Theorem 1 round count sufficient for a
// (1 +- eps) estimate with probability 1-delta on the two-dimensional
// torus, up to the universal constant c2:
//
//	t = c2 * log(1/delta) * [log log(1/delta) + log(1/(d*eps))]^2 / (d*eps^2).
func TheoremOneRounds(eps, delta, d, c2 float64) int {
	validateProb("eps", eps)
	validateProb("delta", delta)
	validateDensity(d)
	loglog := math.Log(math.Max(math.E, math.Log(1/delta))) // clamp so log log >= 0
	inner := loglog + math.Log(1/(d*eps))
	t := c2 * math.Log(1/delta) * inner * inner / (d * eps * eps)
	return int(math.Ceil(t))
}

// Lemma19Epsilon returns the general graph accuracy of Lemma 19:
// eps = O(sqrt(log(1/delta)/(t*d)) * B(t)) where B(t) is the summed
// re-collision bound of the topology.
func Lemma19Epsilon(t int, d, delta, bt float64) float64 {
	validateRounds(t)
	validateProb("delta", delta)
	validateDensity(d)
	return math.Sqrt(math.Log(1/delta)/(float64(t)*d)) * bt
}

// Theorem21Epsilon returns the ring accuracy bound of Theorem 21:
// eps = O(sqrt(1/(t^(1/2) * d * delta))).
//
//antlint:testonly ROADMAP O17 shapes the density band on the ring with it
func Theorem21Epsilon(t int, d, delta float64) float64 {
	validateRounds(t)
	validateProb("delta", delta)
	validateDensity(d)
	return math.Sqrt(1 / (math.Sqrt(float64(t)) * d * delta))
}

// Theorem32Epsilon returns the independent-sampling accuracy of
// Theorem 32: eps = O(sqrt(log(1/delta)/(t*d))).
func Theorem32Epsilon(t int, d, delta float64) float64 {
	validateRounds(t)
	validateProb("delta", delta)
	validateDensity(d)
	return math.Sqrt(math.Log(1/delta) / (float64(t) * d))
}

// The B(t) functions below evaluate the summed re-collision
// probability bound B(t) = sum_{m=0..t} beta(m) for each topology the
// paper analyzes (Section 4). They determine density estimation
// accuracy through Lemma 19.

// BTorus2D returns B(t) for the two-dimensional torus: beta(m) =
// 1/(m+1) (Lemma 4, with the 1/A term absorbed for t <= A), so
// B(t) = H_{t+1} = Theta(log 2t).
func BTorus2D(t int) float64 {
	validateRounds(t)
	return harmonic(t + 1)
}

// BRing returns B(t) for the ring: beta(m) = 1/sqrt(m+1) (Lemma 20),
// so B(t) = Theta(sqrt(t)).
func BRing(t int) float64 {
	validateRounds(t)
	var sum float64
	for m := 0; m <= t; m++ {
		sum += 1 / math.Sqrt(float64(m+1))
	}
	return sum
}

// BTorusK returns B(t) for the k-dimensional torus with k >= 3:
// beta(m) = 1/(m+1)^(k/2) (Lemma 22), so B(t) = O(1) — bounded by the
// convergent series zeta(k/2).
func BTorusK(t, k int) float64 {
	validateRounds(t)
	if k < 3 {
		panic(fmt.Sprintf("core: BTorusK requires k >= 3, got %d", k))
	}
	var sum float64
	for m := 0; m <= t; m++ {
		sum += math.Pow(float64(m+1), -float64(k)/2)
	}
	return sum
}

// BExpander returns B(t) for a regular expander with random-walk
// second eigenvalue lambda: beta(m) = lambda^m + 1/A (Lemma 23), so
// B(t) <= 1/(1-lambda) + t/A.
//
//antlint:testonly ROADMAP O17 shapes the density band on sampled graphs with it
func BExpander(t int, lambda float64, numNodes int64) float64 {
	validateRounds(t)
	if lambda < 0 || lambda >= 1 {
		panic(fmt.Sprintf("core: expander lambda %v outside [0, 1)", lambda))
	}
	return 1/(1-lambda) + float64(t)/float64(numNodes)
}

// BHypercube returns B(t) for the k-dimensional hypercube with A=2^k
// nodes: beta(m) = (9/10)^(m-1) + 1/sqrt(A) (Lemma 25), so
// B(t) <= 10 + t/sqrt(A) (the paper's Section 4.5 constant).
func BHypercube(t int, numNodes int64) float64 {
	validateRounds(t)
	return 10 + float64(t)/math.Sqrt(float64(numNodes))
}

// ExactEqualizationProbability returns the exact probability that a
// 4-direction lattice walk (the paper's torus walk, far from
// wraparound) is back at its origin after m steps:
//
//	P = [ C(m, m/2) / 2^m ]^2   for even m,  0 for odd m.
//
// The identity follows from rotating the lattice 45 degrees, which
// decomposes the walk into two independent +-1 walks. It is the
// Theta(1/(m+1)) quantity of Corollary 10 with its exact constant
// 2/(pi m) + O(1/m^2), and is used to validate measured equalization
// curves.
//
//antlint:testonly reference: the walk package's equalization-curve test compares its Monte Carlo estimate against this closed form
func ExactEqualizationProbability(m int) float64 {
	if m < 0 {
		panic(fmt.Sprintf("core: m must be >= 0, got %d", m))
	}
	if m%2 == 1 {
		return 0
	}
	if m == 0 {
		return 1
	}
	// log C(m, m/2) - m log 2, via log-gamma-free running product to
	// avoid overflow: C(m, m/2)/2^m = prod_{i=1..m/2} (m/2+i)/(2i) / 2^{m/2}...
	// Simpler: multiply ratio terms C(m,m/2)/2^m = prod_{i=1..m/2} ((m/2+i)/i) / 2^m.
	p := 1.0
	half := m / 2
	for i := 1; i <= half; i++ {
		p *= float64(half+i) / float64(i) / 4
	}
	return p * p
}

// harmonic returns the n-th harmonic number H_n.
func harmonic(n int) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / float64(i)
	}
	return sum
}

func validateRounds(t int) {
	if t < 1 {
		panic(fmt.Sprintf("core: rounds must be >= 1, got %d", t))
	}
}

func validateProb(name string, p float64) {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("core: %s must be in (0, 1), got %v", name, p))
	}
}

func validateDensity(d float64) {
	if d <= 0 || d > 1 {
		panic(fmt.Sprintf("core: density must be in (0, 1], got %v", d))
	}
}
