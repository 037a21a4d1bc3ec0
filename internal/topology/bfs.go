package topology

// This file provides breadth-first-search utilities used to validate
// generated graphs (connectivity, bipartiteness) and to measure
// distances. They materialize per-node state, so they are intended for
// explicit graphs, not the arithmetic "infinite" tori.

// Components returns the connected-component label of every node
// (labels are 0-based, assigned in discovery order) and the number of
// components.
func Components(g Graph) (labels []int, count int) {
	n := g.NumNodes()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int64
	for start := int64(0); start < n; start++ {
		if labels[start] >= 0 {
			continue
		}
		labels[start] = count
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for i, d := 0, g.Degree(v); i < d; i++ {
				u := g.Neighbor(v, i)
				if labels[u] < 0 {
					labels[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return labels, count
}

// IsConnected reports whether g has exactly one connected component.
func IsConnected(g Graph) bool {
	_, count := Components(g)
	return count == 1
}

// IsBipartite reports whether g is bipartite. The paper notes the
// torus with even side is bipartite (agents at odd distance never
// meet), while the burn-in analysis of Section 5.1.4 requires a
// non-bipartite network. The arithmetic topologies answer in closed
// form, so an implicit graph is never given a color per node: a torus
// (the ring included) is bipartite iff its side is even, a hypercube
// always is, and a complete graph iff it has at most 2 nodes. Any
// other graph is 2-colored by BFS, which returns at the first odd
// cycle it meets.
func IsBipartite(g Graph) bool {
	switch t := g.(type) {
	case *Torus:
		return t.side%2 == 0
	case *Hypercube:
		return true
	case *Complete:
		return t.nodes <= 2
	}
	n := g.NumNodes()
	color := make([]int8, n) // 0 unvisited, 1 or 2 otherwise
	var queue []int64
	for start := int64(0); start < n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for i, d := 0, g.Degree(v); i < d; i++ {
				u := g.Neighbor(v, i)
				switch {
				case u == v:
					return false // self-loop is an odd cycle
				case color[u] == 0:
					color[u] = 3 - color[v]
					queue = append(queue, u)
				case color[u] == color[v]:
					return false
				}
			}
		}
	}
	return true
}

// BFSDistances returns the hop distance from src to every node, with
// -1 for unreachable nodes.
func BFSDistances(g Graph, src int64) []int64 {
	validateNode(g, src)
	n := g.NumNodes()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int64{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for i, d := 0, g.Degree(v); i < d; i++ {
			u := g.Neighbor(v, i)
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from src.
func Eccentricity(g Graph, src int64) int64 {
	var max int64
	for _, d := range BFSDistances(g, src) {
		if d > max {
			max = d
		}
	}
	return max
}

// LargestComponent returns an Adj containing only the largest
// connected component of g, plus a mapping from new node ids to
// original ids. Social-network generators use it to guarantee
// connected inputs for the Section 5.1 algorithms.
func LargestComponent(g Graph) (*Adj, []int64) {
	labels, count := Components(g)
	sizes := make([]int64, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for l, s := range sizes {
		if s > sizes[best] {
			best = l
		}
	}
	oldToNew := make([]int64, g.NumNodes())
	newToOld := make([]int64, 0, sizes[best])
	for v := int64(0); v < g.NumNodes(); v++ {
		if labels[v] == best {
			oldToNew[v] = int64(len(newToOld))
			newToOld = append(newToOld, v)
		} else {
			oldToNew[v] = -1
		}
	}
	var edges []Edge
	for v := int64(0); v < g.NumNodes(); v++ {
		if labels[v] != best {
			continue
		}
		for i, d := 0, g.Degree(v); i < d; i++ {
			u := g.Neighbor(v, i)
			// An undirected edge {v, u} with u != v appears in both
			// endpoint lists; keep it once per multiplicity. A
			// self-loop appears once in its node's list.
			if u >= v {
				edges = append(edges, Edge{U: oldToNew[v], V: oldToNew[u]})
			}
		}
	}
	sub, err := NewAdj(int64(len(newToOld)), edges)
	if err != nil {
		panic(err) // unreachable: all endpoints were remapped in range
	}
	return sub, newToOld
}
