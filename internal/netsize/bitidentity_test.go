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
		"complete":  topology.MustComplete(40),
	}
}

func TestWalkersBitIdenticalToScalarReference(t *testing.T) {
	// Property: for every graph family, start mode, seed, and walker
	// count, the rebuilt Walkers reproduces the retired scalar loop's
	// start positions, the caller stream's state after the start,
	// positions, queries, and every EstimateSize output field exactly
	// — not approximately. The reference's stationary start searches
	// the cumulative-degree table on every graph, so it is the oracle
	// for the regular graphs' table-free start too.
	for name, g := range identityGraphs(t) {
		for _, n := range []int{2, 9, 40} {
			for seed := uint64(0); seed < 5; seed++ {
				for _, stationary := range []bool{false, true} {
					var w *Walkers
					var ref *refWalkers
					var err error
					root, refRoot := rng.New(seed), rng.New(seed)
					if stationary {
						w, err = NewWalkersStationary(g, n, root)
						ref = refStationary(g, n, refRoot)
					} else {
						w, err = NewWalkersAtSeed(g, n, 0, root)
						ref = refAtSeed(g, n, 0, refRoot)
					}
					if err != nil {
						t.Fatalf("%s n=%d seed=%d: %v", name, n, seed, err)
					}
					if got, want := w.Positions(), ref.pos; !equalInt64(got, want) || root.Uint64() != refRoot.Uint64() {
						t.Fatalf("%s n=%d seed=%d stationary=%v: start diverged\n got %v\nwant %v",
							name, n, seed, stationary, got, want)
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

// plainGraph hides a graph's concrete type, so the same graph runs
// through the Graph-interface kernels (Graph.Degree reads, and
// SpectralGap's interface mat-vec) instead of the CSR ones.
type plainGraph struct{ topology.Graph }

// csrGraphs returns the CSR graphs the netsize kernels are checked on:
// BA(2000, 4), the connected part of an ER draw and a WS graph.
func csrGraphs(t *testing.T) []namedAdj {
	t.Helper()
	ba, err := socialnet.BarabasiAlbert(2000, 4, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	er, err := socialnet.ErdosRenyi(600, 0.02, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := socialnet.WattsStrogatz(800, 6, 0.1, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	return []namedAdj{{"ba", ba}, {"er-connected", socialnet.Connected(er)}, {"ws", ws}}
}

type namedAdj struct {
	name string
	g    *topology.Adj
}

// netsizeEstimators are the three estimators the pins cover: the full
// pipeline with auto burn-in from a seed vertex, and the Katzir and
// cross-round estimators on 150 walkers burned in for 20 steps.
var netsizeEstimators = []struct {
	name string
	run  func(t *testing.T, g topology.Graph) (*Result, error)
}{
	{"Estimate", func(_ *testing.T, g topology.Graph) (*Result, error) {
		return Estimate(g, Config{Walkers: 200, Steps: 100, BurnIn: -1, Seed: 15})
	}},
	{"KatzirEstimate", func(t *testing.T, g topology.Graph) (*Result, error) {
		return burnedWalkers(t, g).KatzirEstimate(0), nil
	}},
	{"CrossRoundEstimate", func(t *testing.T, g topology.Graph) (*Result, error) {
		return burnedWalkers(t, g).CrossRoundEstimate(30, 0)
	}},
}

func burnedWalkers(t *testing.T, g topology.Graph) *Walkers {
	t.Helper()
	w, err := NewWalkersAtSeed(g, 150, 0, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	w.BurnIn(20)
	return w
}

func sameResult(a, b *Result) bool {
	return math.Float64bits(a.Size) == math.Float64bits(b.Size) &&
		math.Float64bits(a.C) == math.Float64bits(b.C) &&
		math.Float64bits(a.InvAvgDegree) == math.Float64bits(b.InvAvgDegree) &&
		a.Queries == b.Queries
}

func TestCSRKernelsBitIdenticalToInterface(t *testing.T) {
	// Property: on every CSR graph, the full pipeline with auto
	// burn-in, the Katzir comparator and the cross-round estimator
	// return the same Result bits whether the walkers read degrees
	// from the CSR offsets or through Graph.Degree.
	for _, tc := range csrGraphs(t) {
		for _, est := range netsizeEstimators {
			csr, err := est.run(t, tc.g)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, est.name, err)
			}
			generic, err := est.run(t, plainGraph{tc.g})
			if err != nil {
				t.Fatalf("%s %s on plainGraph: %v", tc.name, est.name, err)
			}
			if !sameResult(csr, generic) {
				t.Errorf("%s %s: CSR %+v, interface %+v", tc.name, est.name, *csr, *generic)
			}
			if csr.C <= 0 {
				t.Errorf("%s %s: no collisions (C = %v), so the fold was not exercised", tc.name, est.name, csr.C)
			}
		}
	}
}

func TestNetsizeResultBitsPinned(t *testing.T) {
	// TestCSRKernelsBitIdenticalToInterface compares two paths that
	// share the degree-weighted fold, so an edit that moves both alike
	// (a reciprocal multiply, a reordered sum) passes it. These literal
	// Result bits were recorded before the CSR walk drew inline and the
	// fold dropped its zero-count branch; no kernel change may move them.
	pins := map[string]Result{
		"ba/Estimate":           {Size: math.Float64frombits(0x40a035190632f7c7), C: math.Float64frombits(0x3f3f9729dce58d2a), InvAvgDegree: math.Float64frombits(0x3fc076b32c99ee9f), Queries: 26400},
		"ba/KatzirEstimate":     {Size: math.Float64frombits(0x4098636a4f5f82c4), C: math.Float64frombits(0x3f44fe5f0efad8ec), InvAvgDegree: math.Float64frombits(0x3fbde5d8e70682bd), Queries: 3000},
		"ba/CrossRoundEstimate": {Size: math.Float64frombits(0x409dd640004bac11), C: math.Float64frombits(0x3f4128f295b1d73d), InvAvgDegree: math.Float64frombits(0x3fbde5d8e70682bd), Queries: 7500},
		"er-connected/Estimate": {Size: math.Float64frombits(0x408332aa7473d28c), C: math.Float64frombits(0x3f5aab689c6f0eb3), InvAvgDegree: math.Float64frombits(0x3fb59274c898172e), Queries: 24800},
		"ws/Estimate":           {Size: math.Float64frombits(0x40891091f827a5ee), C: math.Float64frombits(0x3f546d573b8d1f30), InvAvgDegree: math.Float64frombits(0x3fb528dbdcde62dc), Queries: 54000},
	}
	checked := 0
	for _, tc := range csrGraphs(t) {
		for _, est := range netsizeEstimators {
			key := tc.name + "/" + est.name
			want, ok := pins[key]
			if !ok {
				continue
			}
			checked++
			got, err := est.run(t, tc.g)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if !sameResult(got, &want) {
				t.Errorf("%s: got {Size:%#x C:%#x Inv:%#x Queries:%d}, want {Size:%#x C:%#x Inv:%#x Queries:%d}", key,
					math.Float64bits(got.Size), math.Float64bits(got.C), math.Float64bits(got.InvAvgDegree), got.Queries,
					math.Float64bits(want.Size), math.Float64bits(want.C), math.Float64bits(want.InvAvgDegree), want.Queries)
			}
		}
	}
	if checked != len(pins) {
		t.Errorf("checked %d of %d pins", checked, len(pins))
	}
}
