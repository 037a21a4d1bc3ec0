// Package topology provides the graph substrate for all random-walk
// simulations in this repository: k-dimensional tori (the paper's
// grid/torus model and its ring special case), hypercubes, complete
// graphs, random regular expanders, and explicit adjacency graphs for
// the social-network experiments. It also includes spectral and BFS
// utilities used to measure mixing parameters.
//
// All graphs expose node identifiers as int64 in [0, NumNodes()). The
// regular topologies (torus, hypercube, complete) compute neighbors
// arithmetically and thus support node counts far beyond available
// memory, which is how the paper's "A large" infinite-surface regime
// is realized.
package topology

import (
	"fmt"
	"math"
	"math/bits"

	"antdensity/internal/rng"
)

// Graph is a finite undirected graph (possibly a multigraph) whose
// nodes are the integers [0, NumNodes()). Implementations must be safe
// for concurrent readers.
type Graph interface {
	// NumNodes returns the number of nodes A.
	NumNodes() int64
	// Degree returns the degree of node v, counting multi-edges with
	// multiplicity.
	Degree(v int64) int
	// Neighbor returns the i-th neighbor of v for 0 <= i < Degree(v).
	// The order is implementation-defined but fixed.
	Neighbor(v int64, i int) int64
}

// Regular is implemented by graphs whose nodes all share one degree.
type Regular interface {
	Graph
	// CommonDegree returns the degree shared by every node.
	CommonDegree() int
}

// RandomStep advances a random walk one step from v on g, choosing a
// uniformly random incident edge using the stream s.
func RandomStep(g Graph, v int64, s *rng.Stream) int64 {
	deg := g.Degree(v)
	if deg == 0 {
		return v
	}
	return g.Neighbor(v, s.Intn(deg))
}

// RandomNode returns a uniformly random node of g.
func RandomNode(g Graph, s *rng.Stream) int64 {
	return int64(s.Uint64n(uint64(g.NumNodes())))
}

// Endpoints returns the degree sum of g, its number of edge
// endpoints. It takes O(1) time for Regular implementations and *Adj
// (whose neighbor array length is the degree sum) and O(A) for other
// graphs. A Regular graph's A·k can exceed the int64 range (a
// hypercube of 58 or more bits, a complete graph of about 3.04e9 or
// more nodes); Endpoints then returns an error that names the limit.
func Endpoints(g Graph) (int64, error) {
	switch g := g.(type) {
	case Regular:
		a, k := g.NumNodes(), g.CommonDegree()
		if hi, lo := bits.Mul64(uint64(a), uint64(k)); hi != 0 || lo > math.MaxInt64 {
			return 0, fmt.Errorf("topology: %d nodes of degree %d have %.4g edge endpoints, more than the limit of %d", a, k, float64(a)*float64(k), int64(math.MaxInt64))
		}
		return a * int64(k), nil
	case *Adj:
		return g.TotalEndpoints(), nil
	}
	var sum int64
	for v := int64(0); v < g.NumNodes(); v++ {
		sum += int64(g.Degree(v))
	}
	return sum, nil
}

// NumEdges returns the number of undirected edges of g (multi-edges
// counted with multiplicity, self-loops counted once each), computed
// as half the degree sum (Endpoints). It panics on a graph whose
// degree sum Endpoints refuses; code handed a graph from outside the
// program calls Endpoints instead.
func NumEdges(g Graph) int64 {
	n, err := Endpoints(g)
	if err != nil {
		panic(err)
	}
	return n / 2
}

// ValidateNode panics if v is outside g's node range. Callers feeding
// externally supplied start nodes into the devirtualized kernels
// (Stepper, the bulk step methods), which skip per-step validation,
// should validate once up front with it.
func ValidateNode(g Graph, v int64) { validateNode(g, v) }

// validateNode panics if v is outside g's node range. Topology
// implementations use it to catch indexing bugs early in simulations.
func validateNode(g Graph, v int64) {
	if v < 0 || v >= g.NumNodes() {
		panic(fmt.Sprintf("topology: node %d out of range [0, %d)", v, g.NumNodes()))
	}
}
