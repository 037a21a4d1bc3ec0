package netsize

import (
	"math"
	"sort"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
	"antdensity/internal/topology"
)

// This file proves the sim.World rebuild of Walkers is
// bit-identical to the scalar implementation it replaced. refWalkers
// reproduces the historical code path exactly: per-walker heap
// streams, a topology.RandomStep loop, and a per-round occupancy map
// folded in walker-index order.

type refWalkers struct {
	graph   topology.Graph
	pos     []int64
	streams []*rng.Stream
	queries int64
}

func refAtSeed(g topology.Graph, n int, seed int64, s *rng.Stream) *refWalkers {
	w := &refWalkers{graph: g, pos: make([]int64, n), streams: make([]*rng.Stream, n)}
	for i := range w.pos {
		w.pos[i] = seed
		w.streams[i] = s.Split(uint64(i))
	}
	return w
}

func refStationary(g topology.Graph, n int, s *rng.Stream) *refWalkers {
	a := g.NumNodes()
	cum := make([]int64, a+1)
	for v := int64(0); v < a; v++ {
		cum[v+1] = cum[v] + int64(g.Degree(v))
	}
	total := cum[a]
	w := &refWalkers{graph: g, pos: make([]int64, n), streams: make([]*rng.Stream, n)}
	for i := range w.pos {
		r := int64(s.Uint64n(uint64(total)))
		w.pos[i] = int64(sort.Search(int(a), func(x int) bool { return cum[x+1] > r }))
		w.streams[i] = s.Split(uint64(i))
	}
	return w
}

func (w *refWalkers) step() {
	for i := range w.pos {
		w.pos[i] = topology.RandomStep(w.graph, w.pos[i], w.streams[i])
		w.queries++
	}
}

func (w *refWalkers) weightedCollisions() float64 {
	occ := make(map[int64]int64, len(w.pos))
	for _, p := range w.pos {
		occ[p]++
	}
	var sum float64
	for _, p := range w.pos {
		if c := occ[p]; c > 1 {
			sum += float64(c-1) / float64(w.graph.Degree(p))
		}
	}
	return sum
}

func (w *refWalkers) estimateAvgDegree() float64 {
	var sum float64
	for _, p := range w.pos {
		sum += 1 / float64(w.graph.Degree(p))
	}
	return sum / float64(len(w.pos))
}

func (w *refWalkers) estimateSize(t int) (size, c, inv float64, queries int64) {
	inv = w.estimateAvgDegree()
	var total float64
	for r := 0; r < t; r++ {
		w.step()
		total += w.weightedCollisions()
	}
	n := float64(len(w.pos))
	c = total / (inv * n * (n - 1) * float64(t))
	return 1 / c, c, inv, w.queries
}

// identityGraphs returns the graph families the walkers must agree
// on: bulk-kernel regular topologies and scalar-path irregular ones.
func identityGraphs(t *testing.T) map[string]topology.Graph {
	t.Helper()
	ba, err := socialnet.BarabasiAlbert(300, 3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topology.NewRing(512)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]topology.Graph{
		"torus3d":   topology.MustTorus(3, 7), // batched RandomStepsInto kernel
		"ring":      ring,                     // batched kernel, 1-D
		"star":      star(33),                 // irregular CSR, per-node-bound kernel
		"barabasi":  ba,                       // irregular CSR, per-node-bound kernel
		"hypercube": topology.MustHypercube(8),
	}
}

func TestWalkersBitIdenticalToScalarReference(t *testing.T) {
	// Property: for every graph family, start mode, seed, and walker
	// count, the rebuilt Walkers reproduces the retired scalar loop's
	// positions, queries, and every EstimateSize output field exactly
	// — not approximately.
	for name, g := range identityGraphs(t) {
		for _, n := range []int{2, 9, 40} {
			for seed := uint64(0); seed < 5; seed++ {
				for _, stationary := range []bool{false, true} {
					var w *Walkers
					var ref *refWalkers
					var err error
					if stationary {
						w, err = NewWalkersStationary(g, n, rng.New(seed))
						ref = refStationary(g, n, rng.New(seed))
					} else {
						w, err = NewWalkersAtSeed(g, n, 0, rng.New(seed))
						ref = refAtSeed(g, n, 0, rng.New(seed))
					}
					if err != nil {
						t.Fatalf("%s n=%d seed=%d: %v", name, n, seed, err)
					}
					w.BurnIn(3)
					for i := 0; i < 3; i++ {
						ref.step()
					}
					if got, want := w.Positions(), ref.pos; !equalInt64(got, want) {
						t.Fatalf("%s n=%d seed=%d stationary=%v: positions diverged after burn-in\n got %v\nwant %v",
							name, n, seed, stationary, got, want)
					}
					if inv, refInv := w.EstimateAvgDegree(), ref.estimateAvgDegree(); inv != refInv {
						t.Fatalf("%s n=%d seed=%d: EstimateAvgDegree %v != ref %v", name, n, seed, inv, refInv)
					}
					if wc, refWC := w.weightedCollisions(), ref.weightedCollisions(); wc != refWC {
						t.Fatalf("%s n=%d seed=%d: weightedCollisions %v != ref %v", name, n, seed, wc, refWC)
					}
					const steps = 6
					res, err := w.EstimateSize(steps, 0)
					if err != nil {
						t.Fatal(err)
					}
					size, c, inv, queries := ref.estimateSize(steps)
					if !sameFloat(res.Size, size) || !sameFloat(res.C, c) ||
						!sameFloat(res.InvAvgDegree, inv) || res.Queries != queries {
						t.Fatalf("%s n=%d seed=%d stationary=%v: EstimateSize diverged\n got {Size:%v C:%v Inv:%v Q:%d}\nwant {Size:%v C:%v Inv:%v Q:%d}",
							name, n, seed, stationary,
							res.Size, res.C, res.InvAvgDegree, res.Queries,
							size, c, inv, queries)
					}
				}
			}
		}
	}
}

// sameFloat is exact equality that also matches +Inf with +Inf (a
// zero-collision run yields infinite size on both sides).
func sameFloat(a, b float64) bool {
	return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1))
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
