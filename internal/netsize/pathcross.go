package netsize

import (
	"fmt"
	"math"

	"antdensity/internal/sim"
)

// This file implements the "beyond encounter rate" idea of the
// paper's Section 6.3.3: instead of counting only same-round
// collisions between walks, store each walk's full t-step path and
// count *cross-round* intersections — every (round r1 of walk i,
// round r2 of walk j) pair that lands on the same vertex. With
// stationary walks the degree-weighted expectation of each cross pair
// is 1/(2|E|) regardless of rounds, so the t^2 pairs per walk pair
// multiply the effective sample count without any extra link queries.

// CrossRoundEstimate runs the walkers t further steps, recording full
// paths, and estimates the network size from degree-weighted
// cross-round path intersections:
//
//	A-tilde = 1/C,  C = degAvg * X / (n (n-1) (t+1)^2),
//
// where X = sum over ordered walk pairs (i, j), i != j, and round
// pairs (r1, r2) of 1{path_i(r1) = path_j(r2)} / deg(vertex). Paths
// include the walkers' starting positions (t+1 positions each).
//
// Compared to Walkers.EstimateSize this extracts roughly t times more
// collision samples from the same query budget, at the cost of
// storing paths and a counting pass; the samples are more correlated,
// so the variance does not shrink by the full factor t — experiment
// E16's companion measurement quantifies the net effect.
func (w *Walkers) CrossRoundEstimate(t int, invAvgDegree float64) (*Result, error) {
	if t < 1 {
		return nil, fmt.Errorf("netsize: step count must be >= 1, got %d", t)
	}
	if invAvgDegree <= 0 {
		invAvgDegree = w.EstimateAvgDegree()
	}
	n := w.world.NumAgents()
	paths := make([][]int64, n)
	for i := range paths {
		paths[i] = make([]int64, 0, t+1)
		paths[i] = append(paths[i], w.world.Pos(i))
	}
	// Path recording is a pipeline observer: after each round it
	// appends every walker's new position and charges the round's link
	// queries.
	sim.Run(w.world, t, sim.ObserverFunc(func(_ *sim.Round) sim.Signal {
		w.queries += int64(n)
		for i := range paths {
			paths[i] = append(paths[i], w.world.Pos(i))
		}
		return sim.Continue
	}))
	// Count, for each vertex, how many times each walk visits it,
	// then combine per-vertex visit counts across walk pairs:
	// X = sum_v (1/deg v) * [ (sum_i m_iv)^2 - sum_i m_iv^2 ],
	// where m_iv is walk i's visit count at v. The bracket counts
	// ordered cross-walk round pairs exactly.
	// Record, per vertex, the ids of the walks that visit it. Walks
	// are processed in ascending id order, so each vertex's visit
	// list is sorted and runs of equal ids are per-walk visit counts;
	// total storage stays O(total visits). Vertices are consumed in
	// first-visit order (kept in `order`) and runs in walk-id order,
	// so the float accumulation below is bit-identical across runs —
	// ranging over the map would make the sum depend on iteration
	// order.
	perVertex := make(map[int64][]int32, n*(t+1))
	var order []int64
	for i, path := range paths {
		for _, v := range path {
			visits, seen := perVertex[v]
			if !seen {
				order = append(order, v)
			}
			perVertex[v] = append(visits, int32(i))
		}
	}
	var x float64
	for _, v := range order {
		ids := perVertex[v]
		var tot, sq float64
		for start := 0; start < len(ids); {
			end := start + 1
			for end < len(ids) && ids[end] == ids[start] {
				end++
			}
			fm := float64(end - start)
			tot += fm
			sq += fm * fm
			start = end
		}
		x += (tot*tot - sq) / float64(w.degreeAt(v))
	}
	nn := float64(n)
	tt := float64(t + 1)
	c := x / (invAvgDegree * nn * (nn - 1) * tt * tt)
	size := math.Inf(1)
	if c > 0 {
		size = 1 / c
	}
	return &Result{Size: size, C: c, InvAvgDegree: invAvgDegree, Queries: w.queries}, nil
}
