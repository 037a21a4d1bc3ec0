package topology

import (
	"fmt"
	"math"

	"antdensity/internal/rng"
)

// MaxSpectralGapNodes is the most nodes SpectralGap accepts: its three
// float64 vectors take 3 GiB at this size. Callers that derive a
// burn-in from the gap check a graph against it before they start.
const MaxSpectralGapNodes = 1 << 27

// SpectralGap estimates lambda = max(|lambda_2|, |lambda_A|) of the
// random-walk matrix W of g, the quantity the paper uses for expander
// re-collision bounds (Lemma 23) and burn-in lengths (Section 5.1.4).
//
// The estimate uses power iteration on W with repeated deflation of
// the stationary component (which for the walk matrix has eigenvalue
// exactly 1, with stationary distribution proportional to degree).
// iters controls the number of power steps; 200-500 is plenty for the
// graphs in this repository. The returned value is a lower bound that
// converges to lambda from below as iters grows. A graph without edge
// endpoints has no walk to measure and gives 0.
//
// The mat-vec y = W x is chosen once per call: on *Adj it reads the
// CSR arrays directly, and on any other Graph it calls Degree and
// Neighbor, so implicit graphs (a large torus, a complete graph) run
// without materializing their edges. Both kernels perform the same
// float operations in the same order and return the same bits.
//
// SpectralGap materializes three vectors of length A (the stationary
// weights and two iterates), so it is intended for graphs up to a few
// tens of millions of nodes, and it panics above MaxSpectralGapNodes.
func SpectralGap(g Graph, iters int, s *rng.Stream) float64 {
	a := g.NumNodes()
	if a > MaxSpectralGapNodes {
		panic(fmt.Sprintf("topology: SpectralGap needs dense vectors; %d nodes is too large", a))
	}
	n := int(a)
	// Stationary weights pi(v) ~ deg(v).
	pi := make([]float64, n)
	var degSum float64
	for v := 0; v < n; v++ {
		d := float64(g.Degree(int64(v)))
		pi[v] = d
		degSum += d
	}
	if degSum == 0 {
		return 0
	}
	for v := range pi {
		pi[v] /= degSum
	}

	x := make([]float64, n)
	for v := range x {
		x[v] = s.NormFloat64()
	}
	y := make([]float64, n)

	deflate := func(vec []float64) {
		// Remove the component along the constant function under the
		// pi-weighted inner product: vec -= <vec, 1>_pi * 1.
		var mean float64
		for v, w := range pi {
			mean += w * vec[v]
		}
		for v := range vec {
			vec[v] -= mean
		}
	}
	piNorm := func(vec []float64) float64 {
		var sum float64
		for v, w := range pi {
			sum += w * vec[v] * vec[v]
		}
		return math.Sqrt(sum)
	}

	deflate(x)
	norm := piNorm(x)
	if norm == 0 {
		return 0
	}
	for v := range x {
		x[v] /= norm
	}

	matVec := func(y, x []float64) { walkMatVec(g, y, x) }
	if adj, ok := g.(*Adj); ok {
		matVec = adj.walkMatVec
	}
	lambda := 0.0
	for it := 0; it < iters; it++ {
		matVec(y, x)
		deflate(y)
		norm = piNorm(y)
		if norm == 0 {
			return 0
		}
		lambda = norm // since |x|_pi == 1, the growth factor is |Wx|_pi
		for v := range y {
			y[v] /= norm
		}
		x, y = y, x
	}
	return lambda
}

// walkMatVec sets y = W x, where (Wx)(v) is the average of x over v's
// neighbor list and 0 at an isolated node, through the Graph
// interface.
func walkMatVec(g Graph, y, x []float64) {
	for v := range y {
		d := g.Degree(int64(v))
		if d == 0 {
			y[v] = 0
			continue
		}
		var sum float64
		for i := 0; i < d; i++ {
			sum += x[g.Neighbor(int64(v), i)]
		}
		y[v] = sum / float64(d)
	}
}

// walkMatVec is the package-level walkMatVec on the CSR arrays: one
// offsets subtraction per node and a range over its neighbor list,
// summing in list order, so it returns the same bits.
//
//antlint:noalloc
func (g *Adj) walkMatVec(y, x []float64) {
	offsets, neighbors := g.offsets, g.neighbors
	for v := range y {
		lo, hi := offsets[v], offsets[v+1]
		if lo == hi {
			y[v] = 0
			continue
		}
		var sum float64
		for _, u := range neighbors[lo:hi] {
			sum += x[u]
		}
		y[v] = sum / float64(hi-lo)
	}
}

// MixingTime returns the paper's burn-in length for network size
// estimation (Section 5.1.4): M = ceil(log(|E|/delta) / (1-lambda))
// steps suffice for every coordinate of the walk distribution to be
// within a (1 +- delta/(n|E|)) factor of stationary. numEdges must be
// at least 1, lambda in [0, 1) and delta in (0, 1).
func MixingTime(numEdges int64, lambda, delta float64) int {
	if numEdges < 1 {
		panic(fmt.Sprintf("topology: MixingTime needs >= 1 edge, got %d", numEdges))
	}
	if !(lambda >= 0 && lambda < 1) {
		panic(fmt.Sprintf("topology: MixingTime lambda must be in [0,1), got %v", lambda))
	}
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("topology: MixingTime delta must be in (0,1), got %v", delta))
	}
	return int(math.Ceil(math.Log(float64(numEdges)/delta) / (1 - lambda)))
}
