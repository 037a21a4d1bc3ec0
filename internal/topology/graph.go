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

// Walk performs an m-step random walk from v and returns the endpoint.
// The start node is validated once and the per-step dispatch is
// devirtualized for the regular topologies, so the walk runs an
// arithmetic-only, allocation-free inner loop; results are
// bit-identical to m RandomStep calls.
func Walk(g Graph, v int64, m int, s *rng.Stream) int64 {
	validateNode(g, v)
	switch t := g.(type) {
	case *Torus:
		deg := 2 * t.dims
		for i := 0; i < m; i++ {
			v = t.NeighborUnchecked(v, s.Intn(deg))
		}
	case *Hypercube:
		bits := t.bits
		for i := 0; i < m; i++ {
			v = t.NeighborUnchecked(v, s.Intn(bits))
		}
	case *Complete:
		deg := int(t.nodes - 1)
		for i := 0; i < m; i++ {
			v = t.NeighborUnchecked(v, s.Intn(deg))
		}
	case *Adj:
		for i := 0; i < m; i++ {
			v = t.RandomStepFrom(v, s)
		}
	default:
		for i := 0; i < m; i++ {
			v = RandomStep(g, v, s)
		}
	}
	return v
}

// WalkPath performs an m-step random walk from v and returns the full
// path of m+1 positions, beginning with v.
func WalkPath(g Graph, v int64, m int, s *rng.Stream) []int64 {
	validateNode(g, v)
	step := Stepper(g)
	path := make([]int64, m+1)
	path[0] = v
	for i := 1; i <= m; i++ {
		v = step(v, s)
		path[i] = v
	}
	return path
}

// NumEdges returns the number of undirected edges of g (multi-edges
// counted with multiplicity, self-loops counted once each), computed
// as half the degree sum. It takes O(1) time for Regular
// implementations and *Adj (whose neighbor array length is the degree
// sum) and O(A) for other graphs.
func NumEdges(g Graph) int64 {
	switch g := g.(type) {
	case Regular:
		return g.NumNodes() * int64(g.CommonDegree()) / 2
	case *Adj:
		return g.TotalEndpoints() / 2
	}
	var sum int64
	for v := int64(0); v < g.NumNodes(); v++ {
		sum += int64(g.Degree(v))
	}
	return sum / 2
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
