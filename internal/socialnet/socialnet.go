// Package socialnet generates synthetic social-network-like graphs
// for the Section 5.1 network size estimation experiments: the paper
// evaluates its estimator against link-query access to large networks
// (Facebook-scale crawls in the cited work), which this reproduction
// replaces with standard generative models exercising the same code
// path — preferential attachment (heavy-tailed degrees, fast mixing),
// Erdos-Renyi (homogeneous degrees), and Watts-Strogatz (tunable
// mixing speed via the rewiring probability).
package socialnet

import (
	"fmt"
	"math"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// BarabasiAlbert generates a preferential-attachment graph: nodes
// arrive one at a time and connect m edges to existing nodes chosen
// proportionally to degree. The result is connected with a power-law
// degree tail (exponent ~3). It returns an error if n < m+1 or m < 1.
func BarabasiAlbert(n int64, m int, s *rng.Stream) (*topology.Adj, error) {
	if m < 1 {
		return nil, fmt.Errorf("socialnet: BarabasiAlbert m must be >= 1, got %d", m)
	}
	if n < int64(m)+1 {
		return nil, fmt.Errorf("socialnet: BarabasiAlbert needs n >= m+1 (n=%d, m=%d)", n, m)
	}
	edges := make([]topology.Edge, 0, n*int64(m))
	// Repeated-endpoint list: each edge endpoint appears once, so
	// uniform sampling from the list is degree-proportional sampling.
	endpoints := make([]int64, 0, 2*n*int64(m))
	// Seed: a star on nodes 0..m keeps early degrees positive.
	for v := int64(1); v <= int64(m); v++ {
		edges = append(edges, topology.Edge{U: 0, V: v})
		endpoints = append(endpoints, 0, v)
	}
	chosen := make(map[int64]bool, m)
	targets := make([]int64, 0, m)
	for v := int64(m) + 1; v < n; v++ {
		clear(chosen)
		targets = targets[:0]
		for len(targets) < m {
			target := endpoints[s.Intn(len(endpoints))]
			if !chosen[target] {
				chosen[target] = true
				targets = append(targets, target)
			}
		}
		for _, target := range targets {
			edges = append(edges, topology.Edge{U: v, V: target})
			endpoints = append(endpoints, v, target)
		}
	}
	return topology.NewAdj(n, edges)
}

// ErdosRenyi generates G(n, p): each of the n(n-1)/2 possible edges
// is present independently with probability p. It uses geometric
// skipping, so the cost is proportional to the number of edges rather
// than n^2. It returns an error if n < 2 or p outside (0, 1].
func ErdosRenyi(n int64, p float64, s *rng.Stream) (*topology.Adj, error) {
	if n < 2 {
		return nil, fmt.Errorf("socialnet: ErdosRenyi needs n >= 2, got %d", n)
	}
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("socialnet: ErdosRenyi p must be in (0, 1], got %v", p)
	}
	var edges []topology.Edge
	// Iterate over pair index k in [0, n(n-1)/2) with geometric jumps.
	total := n * (n - 1) / 2
	k := int64(-1)
	logq := math.Log1p(-p)
	for {
		if p == 1 {
			k++
		} else {
			// Skip ~Geometric(p) pairs.
			u := s.Float64()
			skip := int64(math.Floor(math.Log(1-u) / logq))
			k += skip + 1
		}
		if k >= total {
			break
		}
		u, v := pairFromIndex(k)
		edges = append(edges, topology.Edge{U: u, V: v})
	}
	return topology.NewAdj(n, edges)
}

// pairFromIndex maps a linear index k to the k-th pair (u, v) with
// u < v, ordering pairs by v then u: pairs with larger node first are
// (0,1), (0,2), (1,2), (0,3), ...
func pairFromIndex(k int64) (int64, int64) {
	// v is the largest integer with v(v-1)/2 <= k.
	v := int64((1 + math.Sqrt(1+8*float64(k))) / 2)
	for v*(v-1)/2 > k {
		v--
	}
	for (v+1)*v/2 <= k {
		v++
	}
	u := k - v*(v-1)/2
	return u, v
}

// WattsStrogatz generates a small-world graph: a ring lattice where
// each node connects to its k nearest neighbors on each side, with
// each edge's far endpoint rewired to a uniform random node with
// probability beta. beta=0 gives a slowly mixing lattice; beta=1 an
// almost-random graph. Rewiring skips moves that would create
// self-loops. It returns an error if n < 2k+2, k < 1, or beta outside
// [0, 1].
func WattsStrogatz(n int64, k int, beta float64, s *rng.Stream) (*topology.Adj, error) {
	if k < 1 {
		return nil, fmt.Errorf("socialnet: WattsStrogatz k must be >= 1, got %d", k)
	}
	if n < 2*int64(k)+2 {
		return nil, fmt.Errorf("socialnet: WattsStrogatz needs n >= 2k+2 (n=%d, k=%d)", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("socialnet: WattsStrogatz beta must be in [0, 1], got %v", beta)
	}
	edges := make([]topology.Edge, 0, n*int64(k))
	for v := int64(0); v < n; v++ {
		for j := 1; j <= k; j++ {
			u := (v + int64(j)) % n
			if s.Bernoulli(beta) {
				w := int64(s.Uint64n(uint64(n)))
				if w != v {
					u = w
				}
			}
			edges = append(edges, topology.Edge{U: v, V: u})
		}
	}
	return topology.NewAdj(n, edges)
}

// Connected extracts the largest connected component of g, returning
// it as a new graph. The Section 5.1 estimators require connected
// inputs; generated graphs with isolated fragments are trimmed with
// this helper.
func Connected(g topology.Graph) *topology.Adj {
	sub, _ := topology.LargestComponent(g)
	return sub
}

// DegreeStats summarizes a graph's degree sequence.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// SumSquares is sum of squared degrees, which appears in the
	// [KLSC14] comparison of Section 5.1.5.
	SumSquares float64
}

// Degrees computes DegreeStats for g.
func Degrees(g topology.Graph) DegreeStats {
	st := DegreeStats{Min: math.MaxInt32}
	n := g.NumNodes()
	var sum float64
	for v := int64(0); v < n; v++ {
		d := g.Degree(v)
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		sum += float64(d)
		st.SumSquares += float64(d) * float64(d)
	}
	st.Mean = sum / float64(n)
	return st
}
