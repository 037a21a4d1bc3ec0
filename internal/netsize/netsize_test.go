package netsize

import (
	"math"
	"strings"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
	"antdensity/internal/stats"
	"antdensity/internal/topology"
)

// star returns a star graph: node 0 joined to nodes 1..n-1.
func star(n int64) *topology.Adj {
	edges := make([]topology.Edge, 0, n-1)
	for v := int64(1); v < n; v++ {
		edges = append(edges, topology.Edge{U: 0, V: v})
	}
	return topology.MustAdj(n, edges)
}

func TestNewWalkersValidation(t *testing.T) {
	g := topology.MustTorus(3, 4)
	s := rng.New(1)
	if _, err := NewWalkersAtSeed(g, 1, 0, s); err == nil {
		t.Error("single walker accepted")
	}
	if _, err := NewWalkersAtSeed(g, 5, -1, s); err == nil {
		t.Error("negative seed vertex accepted")
	}
	if _, err := NewWalkersAtSeed(g, 5, g.NumNodes(), s); err == nil {
		t.Error("out-of-range seed vertex accepted")
	}
	if _, err := NewWalkersStationary(g, 1, s); err == nil {
		t.Error("single stationary walker accepted")
	}
	// A seed vertex of degree 0, in a graph that has edges.
	isolated := topology.MustAdj(4, []topology.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	if _, err := NewWalkersAtSeed(isolated, 5, 3, s); err == nil {
		t.Error("seed vertex of degree 0 accepted")
	}
}

func TestStationarySamplingIsDegreeProportional(t *testing.T) {
	// On a star with 11 nodes, the center holds half the edge
	// endpoints, so stationary walkers start there half the time.
	g := star(11)
	s := rng.New(2)
	const n = 20000
	w, err := NewWalkersStationary(g, n, s)
	if err != nil {
		t.Fatal(err)
	}
	center := 0
	for _, p := range w.Positions() {
		if p == 0 {
			center++
		}
	}
	frac := float64(center) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("center start fraction = %v, want ~0.5", frac)
	}
}

// TestStationaryStartRefusesEndpointOverflow pins that a stationary
// start refuses a graph whose degree sum A·k exceeds the int64 range,
// where the draw below it wrapped: negative on hypercube(58), whose
// walkers started at negative nodes, and positive on complete(4.5e9),
// whose walkers all started in its first 9% of nodes. Just below the
// limit the start still runs.
func TestStationaryStartRefusesEndpointOverflow(t *testing.T) {
	for _, g := range []topology.Graph{topology.MustHypercube(58), topology.MustComplete(4e9), topology.MustComplete(4.5e9)} {
		_, err := NewWalkersStationary(g, 8, rng.New(1))
		if err == nil || !strings.Contains(err.Error(), "more than the limit of 9223372036854775807") {
			t.Errorf("%T with %d nodes: err %v, want the int64 limit named", g, g.NumNodes(), err)
		}
		if _, err := Estimate(g, Config{Walkers: 8, Steps: 3, Stationary: true}); err == nil {
			t.Errorf("%T with %d nodes: Estimate accepted it", g, g.NumNodes())
		}
	}
	g := topology.MustHypercube(57) // 57·2^57 endpoints, below 2^63
	w, err := NewWalkersStationary(g, 8, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.Positions() {
		if p < 0 || p >= g.NumNodes() {
			t.Fatalf("walker at %d, outside [0, %d)", p, g.NumNodes())
		}
	}
}

func TestQueryAccounting(t *testing.T) {
	g := topology.MustTorus(3, 4)
	s := rng.New(3)
	w, err := NewWalkersAtSeed(g, 10, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	w.BurnIn(7)
	if got, want := w.Queries(), int64(70); got != want {
		t.Fatalf("queries after burn-in = %d, want %d", got, want)
	}
	res, err := w.EstimateSize(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Queries, int64(120); got != want {
		t.Errorf("queries after estimate = %d, want %d", got, want)
	}
}

func TestEstimateAvgDegreeUnbiased(t *testing.T) {
	// Theorem 31: E[D] = |V|/(2|E|) = 1/degAvg under stationary
	// starts. Star graph: |V|=11, |E|=10, 1/degAvg = 11/20.
	g := star(11)
	s := rng.New(4)
	w, err := NewWalkersStationary(g, 50000, s)
	if err != nil {
		t.Fatal(err)
	}
	got := w.EstimateAvgDegree()
	want := 11.0 / 20
	if math.Abs(got-want) > 0.01 {
		t.Errorf("avg inverse degree = %v, want %v", got, want)
	}
}

func TestWeightedCollisionsBruteForce(t *testing.T) {
	g := topology.MustTorus(2, 3) // 9 nodes, degree 4: collisions guaranteed
	s := rng.New(5)
	w, err := NewWalkersAtSeed(g, 12, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	w.BurnIn(3)
	pos := w.Positions()
	var want float64
	for i, pi := range pos {
		for j, pj := range pos {
			if i != j && pi == pj {
				want += 1 / float64(g.Degree(pi))
			}
		}
	}
	if got := w.weightedCollisions(); math.Abs(got-want) > 1e-9 {
		t.Errorf("weightedCollisions = %v, brute force = %v", got, want)
	}
}

func TestEstimateSizeRegularGraph(t *testing.T) {
	// 3-D torus: regular, fast local mixing (B(t) = O(1)); the size
	// estimate should concentrate near |V| = 512.
	g := topology.MustTorus(3, 8)
	var cs []float64
	for trial := 0; trial < 10; trial++ {
		res, err := Estimate(g, Config{
			Walkers: 50, Steps: 100, Stationary: true, Seed: uint64(100 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, res.C)
	}
	meanC := stats.Mean(cs)
	want := 1 / float64(g.NumNodes())
	if math.Abs(meanC-want)/want > 0.25 {
		t.Errorf("mean C = %v, want ~%v (size %v vs %d)", meanC, want, 1/meanC, g.NumNodes())
	}
}

func TestEstimateSizeIrregularGraphDegreeCorrection(t *testing.T) {
	// On a heavily irregular graph the degree weighting is what keeps
	// the estimator calibrated (Lemma 28). Use a BA graph.
	s := rng.New(6)
	g, err := socialnet.BarabasiAlbert(600, 3, s)
	if err != nil {
		t.Fatal(err)
	}
	var cs []float64
	for trial := 0; trial < 12; trial++ {
		res, err := Estimate(g, Config{
			Walkers: 60, Steps: 80, Stationary: true, Seed: uint64(200 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, res.C)
	}
	meanC := stats.Mean(cs)
	want := 1 / float64(g.NumNodes())
	if math.Abs(meanC-want)/want > 0.3 {
		t.Errorf("mean C = %v, want ~%v (size %v vs %d)", meanC, want, 1/meanC, g.NumNodes())
	}
}

func TestSeedStartWithBurnInMatchesStationary(t *testing.T) {
	// Section 5.1.4: after enough burn-in, seed-started walks give
	// estimates consistent with stationary-started ones. The side
	// must be odd: an even-side torus is bipartite and the walk never
	// mixes (Estimate rejects a seed start on it; see
	// TestEstimateRejectsBipartiteSeedStart).
	g := topology.MustTorus(3, 7)
	var burned, stationary []float64
	for trial := 0; trial < 10; trial++ {
		rb, err := Estimate(g, Config{
			Walkers: 50, Steps: 80, BurnIn: -1, SeedVertex: 0, Seed: uint64(300 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Estimate(g, Config{
			Walkers: 50, Steps: 80, Stationary: true, Seed: uint64(400 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		burned = append(burned, rb.C)
		stationary = append(stationary, rs.C)
	}
	mb, ms := stats.Mean(burned), stats.Mean(stationary)
	if math.Abs(mb-ms)/ms > 0.35 {
		t.Errorf("burned-in mean C %v vs stationary %v differ too much", mb, ms)
	}
}

func TestKatzirVsMultiRound(t *testing.T) {
	// With few walkers, the single-snapshot Katzir estimator often
	// sees zero collisions (C = 0 => infinite size estimate), while
	// the multi-round estimator accumulates collisions over t rounds.
	g := topology.MustTorus(3, 10) // 1000 nodes
	s := rng.New(7)
	infKatzir, infMulti := 0, 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		wk, err := NewWalkersStationary(g, 12, s.Split(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(wk.KatzirEstimate(0).Size, 1) {
			infKatzir++
		}
		wm, err := NewWalkersStationary(g, 12, s.Split(uint64(1000+trial)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := wm.EstimateSize(400, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(res.Size, 1) {
			infMulti++
		}
	}
	if infKatzir <= infMulti {
		t.Errorf("Katzir produced %d infinite estimates vs multi-round %d; expected strictly more", infKatzir, infMulti)
	}
	if infMulti > trials/4 {
		t.Errorf("multi-round estimator failed to collide in %d/%d trials", infMulti, trials)
	}
}

func TestMedianOfMeansSuppressesOutliers(t *testing.T) {
	g := topology.MustTorus(3, 8)
	size, queries, err := MedianOfMeansSize(g, Config{
		Walkers: 30, Steps: 60, Stationary: true, Seed: 11,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if queries <= 0 {
		t.Error("no queries recorded")
	}
	want := float64(g.NumNodes())
	if math.Abs(size-want)/want > 0.5 {
		t.Errorf("median-of-means size = %v, want ~%v", size, want)
	}
	if _, _, err := MedianOfMeansSize(g, Config{Walkers: 5, Steps: 5, Stationary: true}, 0); err == nil {
		t.Error("reps=0 accepted")
	}
}

func TestEstimateSizeValidation(t *testing.T) {
	g := topology.MustTorus(3, 4)
	s := rng.New(8)
	w, err := NewWalkersStationary(g, 5, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.EstimateSize(0, 0); err == nil {
		t.Error("t=0 accepted")
	}
}

func TestEstimateConfigErrors(t *testing.T) {
	g := topology.MustTorus(3, 4)
	if _, err := Estimate(g, Config{Walkers: 1, Steps: 10, Stationary: true}); err == nil {
		t.Error("walkers=1 accepted")
	}
	// Graphs without an edge, where auto burn-in would take the log of
	// zero edges: one isolated node (what Connected keeps of an
	// edgeless ER draw), and one node whose self-loop gives it degree 1
	// but NumEdges 0. Then a seed vertex of degree 0 in a graph that
	// has edges.
	single := topology.MustAdj(1, nil)
	loop := topology.MustAdj(1, []topology.Edge{{U: 0, V: 0}})
	triangle := topology.MustAdj(4, []topology.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	for _, tc := range []struct {
		name string
		g    topology.Graph
		cfg  Config
	}{
		{"isolated node", single, Config{Walkers: 10, Steps: 50, BurnIn: -1}},
		{"self-loop", loop, Config{Walkers: 10, Steps: 50, BurnIn: -1}},
		{"self-loop, stationary", loop, Config{Walkers: 10, Steps: 50, Stationary: true}},
		{"seed vertex of degree 0", triangle, Config{Walkers: 10, Steps: 50, BurnIn: -1, SeedVertex: 3}},
		// Auto burn-in on a graph SpectralGap cannot hold: an error, not
		// its panic. The odd side keeps the graph non-bipartite.
		{"auto burn-in above the spectral gap's node limit", topology.MustTorus(3, 1023), Config{Walkers: 10, Steps: 50, BurnIn: -1}},
	} {
		if res, err := Estimate(tc.g, tc.cfg); err == nil {
			t.Errorf("%s: Estimate succeeded with %+v, want an error", tc.name, *res)
		}
	}
}

func TestEstimateRejectsBipartiteAutoBurnIn(t *testing.T) {
	// Even-side torus is bipartite: lambda = 1, the walk never mixes,
	// and automatic burn-in must refuse rather than loop for millions
	// of steps.
	g := topology.MustTorus(3, 8)
	_, err := Estimate(g, Config{Walkers: 10, Steps: 10, BurnIn: -1, SeedVertex: 0, Seed: 1})
	if err == nil {
		t.Fatal("bipartite graph accepted for auto burn-in")
	}
}

func TestEstimateRejectsBipartiteSeedStart(t *testing.T) {
	// Walkers from one vertex of a bipartite graph keep its side, so
	// they meet on half the nodes at most and the estimate is about
	// half the size. The 64² torus's other eigenvalues decay too
	// slowly for the spectral value guard to catch it, and an explicit
	// burn-in skips that guard, so the refusal must come first.
	ring, err := topology.NewRing(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    topology.Graph
	}{{"torus 64²", topology.MustTorus(2, 64)}, {"ring 200", ring}} {
		for _, burn := range []int{-1, 500} {
			_, err := Estimate(tc.g, Config{Walkers: 20, Steps: 20, BurnIn: burn, Seed: 5})
			if err == nil || !strings.Contains(err.Error(), "bipartite") {
				t.Errorf("%s, burn-in %d: error %v, want a bipartite refusal", tc.name, burn, err)
			}
		}
	}
	// An odd side is not bipartite, and a stationary start is unbiased
	// on a bipartite graph: both still run.
	for _, tc := range []struct {
		name string
		g    topology.Graph
		cfg  Config
	}{
		{"torus 63², seed start", topology.MustTorus(2, 63), Config{Walkers: 20, Steps: 20, BurnIn: -1, Seed: 5}},
		{"torus 64², stationary", topology.MustTorus(2, 64), Config{Walkers: 20, Steps: 20, Stationary: true, Seed: 5}},
	} {
		if _, err := Estimate(tc.g, tc.cfg); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
