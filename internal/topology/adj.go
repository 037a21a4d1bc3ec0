package topology

import (
	"fmt"
	"sync"
)

// Adj is an explicit undirected graph stored in compressed sparse row
// form. It backs the social-network experiments (paper Section 5.1)
// and the random regular expander construction. Multi-edges are
// allowed and contribute to degree with multiplicity; a self-loop
// appears once in its node's neighbor list.
type Adj struct {
	offsets   []int64 // len A+1; neighbors of v are neighbors[offsets[v]:offsets[v+1]]
	neighbors []int64
	regular   int // common degree if every node shares one, else -1

	idOnce sync.Once // guards id: hashed on the first GraphID call
	id     string
}

var _ Graph = (*Adj)(nil)

// Edge is an undirected edge between nodes U and V.
type Edge struct {
	U, V int64
}

// NewAdj builds an adjacency graph on n nodes from an undirected edge
// list. Each edge {u, v} adds v to u's neighbor list and u to v's; a
// self-loop {v, v} adds v to its own list once (degree contribution 1,
// so a pure-random-walk step across it stays in place). It returns an
// error if any endpoint is out of range.
func NewAdj(n int64, edges []Edge) (*Adj, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: adjacency graph needs >= 1 node, got %d", n)
	}
	deg := make([]int64, n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("topology: edge (%d, %d) out of range [0, %d)", e.U, e.V, n)
		}
		deg[e.U]++
		if e.U != e.V {
			deg[e.V]++
		}
	}
	offsets := make([]int64, n+1)
	for v := int64(0); v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	neighbors := make([]int64, offsets[n])
	fill := make([]int64, n)
	copy(fill, offsets[:n])
	for _, e := range edges {
		neighbors[fill[e.U]] = e.V
		fill[e.U]++
		if e.U != e.V {
			neighbors[fill[e.V]] = e.U
			fill[e.V]++
		}
	}
	g := &Adj{offsets: offsets, neighbors: neighbors, regular: -1}
	if n > 0 {
		common := g.Degree(0)
		uniform := true
		for v := int64(1); v < n; v++ {
			if g.Degree(v) != common {
				uniform = false
				break
			}
		}
		if uniform {
			g.regular = common
		}
	}
	return g, nil
}

// MustAdj is like NewAdj but panics on error.
//
//antlint:testonly fixture shared by the tests of the root package, topology, sim, netsize and socialnet
func MustAdj(n int64, edges []Edge) *Adj {
	g, err := NewAdj(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumNodes returns the node count.
func (g *Adj) NumNodes() int64 { return int64(len(g.offsets)) - 1 }

// Degree returns the number of edge endpoints at v.
func (g *Adj) Degree(v int64) int {
	validateNode(g, v)
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbor returns the i-th neighbor of v.
func (g *Adj) Neighbor(v int64, i int) int64 {
	validateNode(g, v)
	d := g.offsets[v+1] - g.offsets[v]
	if i < 0 || int64(i) >= d {
		panic(fmt.Sprintf("topology: adjacency neighbor index %d out of range [0, %d)", i, d))
	}
	return g.neighbors[g.offsets[v]+int64(i)]
}

// IsRegular reports whether every node shares a common degree, and
// that degree.
func (g *Adj) IsRegular() (degree int, ok bool) {
	if g.regular < 0 {
		return 0, false
	}
	return g.regular, true
}

// Neighbors returns a read-only view of v's neighbor list. Callers
// must not modify the returned slice.
func (g *Adj) Neighbors(v int64) []int64 {
	validateNode(g, v)
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// TotalEndpoints returns the degree sum (twice the edge count for
// loop-free graphs).
func (g *Adj) TotalEndpoints() int64 { return int64(len(g.neighbors)) }
