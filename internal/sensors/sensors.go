// Package sensors implements random-walk-based sensor network
// sampling (paper Section 6.3.1, after [AB04, LB07]): a query token
// is relayed randomly between sensors connected in a grid network,
// averaging the values it sees. Unlike independent sampling, the
// token revisits sensors; the paper's moment bounds (Corollaries 15
// and 16) predict that on the 2-D grid the revisit overhead inflates
// the error by only a logarithmic factor, so the memoryless token —
// which needs no visited-set bookkeeping — remains competitive.
//
// Fields (the per-sensor values) are deterministic functions of node
// id and seed, so arbitrarily large networks cost no memory.
package sensors

import (
	"fmt"
	"math"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// Field assigns a measurement value to every sensor (node).
type Field func(node int64) float64

// BernoulliField returns a Field that is 1 with probability p and 0
// otherwise, independently per node — the paper's "percentage of
// sensors that have recorded a specific condition" query. Values are
// a deterministic hash of (node, seed).
func BernoulliField(p float64, seed uint64) Field {
	return func(node int64) float64 {
		if hashUnit(node, seed) < p {
			return 1
		}
		return 0
	}
}

// hashUnit maps (node, seed) to [0, 1) deterministically via
// splitmix64-style mixing.
func hashUnit(node int64, seed uint64) float64 {
	z := uint64(node)*0x9e3779b97f4a7c15 + seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// TokenEstimate relays a query token along a t-step random walk from
// a uniformly random sensor and returns the average of the values at
// the t+1 visited positions (revisits counted with multiplicity — the
// token keeps no visited-set state).
func TokenEstimate(g topology.Graph, f Field, t int, s *rng.Stream) float64 {
	if t < 0 {
		panic(fmt.Sprintf("sensors: t must be >= 0, got %d", t))
	}
	pos := topology.RandomNode(g, s)
	sum := f(pos)
	for i := 0; i < t; i++ {
		pos = topology.RandomStep(g, pos, s)
		sum += f(pos)
	}
	return sum / float64(t+1)
}

// IndependentEstimate averages the values of t+1 independently and
// uniformly sampled sensors — the idealized baseline a token walk is
// compared against.
func IndependentEstimate(g topology.Graph, f Field, t int, s *rng.Stream) float64 {
	if t < 0 {
		panic(fmt.Sprintf("sensors: t must be >= 0, got %d", t))
	}
	var sum float64
	for i := 0; i <= t; i++ {
		sum += f(topology.RandomNode(g, s))
	}
	return sum / float64(t+1)
}

// FieldMean computes the exact mean of f over all nodes of g; use
// only on graphs small enough to enumerate.
func FieldMean(g topology.Graph, f Field) float64 {
	var sum float64
	n := g.NumNodes()
	for v := int64(0); v < n; v++ {
		sum += f(v)
	}
	return sum / float64(n)
}

// RMSEComparison holds the outcome of a token-vs-independent study.
type RMSEComparison struct {
	// TokenRMSE and IndependentRMSE are root-mean-squared errors of
	// the two estimators against the true field mean.
	TokenRMSE, IndependentRMSE float64
	// Inflation is TokenRMSE / IndependentRMSE — the price of
	// correlated (revisiting) samples. Corollary 15 predicts O(log t)
	// inflation in variance on the 2-D grid, so sqrt of that here.
	Inflation float64
}

// CompareRMSE runs trials of each estimator with t-step walks on g
// and measures both RMSEs against the exact mean. The truth is
// computed by enumerating g, so g must be small enough to scan once;
// token walks themselves would work on unbounded graphs.
func CompareRMSE(g topology.Graph, f Field, t, trials int, s *rng.Stream) RMSEComparison {
	if trials < 1 {
		panic(fmt.Sprintf("sensors: trials must be >= 1, got %d", trials))
	}
	truth := FieldMean(g, f)
	var seTok, seInd float64
	for trial := 0; trial < trials; trial++ {
		st := s.Split(uint64(2 * trial))
		si := s.Split(uint64(2*trial + 1))
		dt := TokenEstimate(g, f, t, st) - truth
		di := IndependentEstimate(g, f, t, si) - truth
		seTok += dt * dt
		seInd += di * di
	}
	out := RMSEComparison{
		TokenRMSE:       math.Sqrt(seTok / float64(trials)),
		IndependentRMSE: math.Sqrt(seInd / float64(trials)),
	}
	if out.IndependentRMSE > 0 {
		out.Inflation = out.TokenRMSE / out.IndependentRMSE
	}
	return out
}
