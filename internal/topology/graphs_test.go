package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"antdensity/internal/rng"
)

func TestHypercubeBasics(t *testing.T) {
	h := MustHypercube(4)
	if h.NumNodes() != 16 || h.CommonDegree() != 4 {
		t.Fatalf("hypercube(4): nodes=%d degree=%d", h.NumNodes(), h.CommonDegree())
	}
	// Every neighbor differs by exactly one bit.
	for v := int64(0); v < h.NumNodes(); v++ {
		for i := 0; i < h.Degree(v); i++ {
			u := h.Neighbor(v, i)
			diff := v ^ u
			if diff == 0 || diff&(diff-1) != 0 {
				t.Fatalf("neighbor %d of %d differs in more than one bit", u, v)
			}
		}
	}
}

func TestHypercubeNeighborInvolution(t *testing.T) {
	h := MustHypercube(6)
	for v := int64(0); v < h.NumNodes(); v += 7 {
		for i := 0; i < h.Degree(v); i++ {
			if h.Neighbor(h.Neighbor(v, i), i) != v {
				t.Fatalf("bit flip %d not an involution at %d", i, v)
			}
		}
	}
}

func TestHypercubeValidation(t *testing.T) {
	for _, bits := range []int{0, -1, 63} {
		if _, err := NewHypercube(bits); err == nil {
			t.Errorf("NewHypercube(%d) succeeded, want error", bits)
		}
	}
}

func TestCompleteBasics(t *testing.T) {
	c := MustComplete(5)
	if c.NumNodes() != 5 || c.CommonDegree() != 4 {
		t.Fatalf("complete(5): nodes=%d degree=%d", c.NumNodes(), c.CommonDegree())
	}
	for v := int64(0); v < 5; v++ {
		seen := map[int64]bool{}
		for i := 0; i < c.Degree(v); i++ {
			u := c.Neighbor(v, i)
			if u == v {
				t.Fatalf("complete graph has self-neighbor at %d", v)
			}
			seen[u] = true
		}
		if len(seen) != 4 {
			t.Fatalf("node %d has %d distinct neighbors, want 4", v, len(seen))
		}
	}
}

func TestCompleteValidation(t *testing.T) {
	if _, err := NewComplete(1); err == nil {
		t.Error("NewComplete(1) succeeded, want error")
	}
}

func TestAdjBasics(t *testing.T) {
	// Triangle with an extra pendant node: 0-1, 1-2, 2-0, 2-3.
	g := MustAdj(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	wantDeg := []int{2, 2, 3, 1}
	for v, want := range wantDeg {
		if got := g.Degree(int64(v)); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if _, ok := g.IsRegular(); ok {
		t.Error("irregular graph reported regular")
	}
	if got := g.TotalEndpoints(); got != 8 {
		t.Errorf("TotalEndpoints = %d, want 8", got)
	}
}

func TestAdjSelfLoop(t *testing.T) {
	g := MustAdj(2, []Edge{{0, 0}, {0, 1}})
	if got := g.Degree(0); got != 2 {
		t.Errorf("Degree(0) with self-loop = %d, want 2", got)
	}
	found := false
	for _, u := range g.Neighbors(0) {
		if u == 0 {
			found = true
		}
	}
	if !found {
		t.Error("self-loop missing from neighbor list")
	}
}

func TestAdjMultiEdge(t *testing.T) {
	g := MustAdj(2, []Edge{{0, 1}, {0, 1}})
	if g.Degree(0) != 2 || g.Degree(1) != 2 {
		t.Errorf("multi-edge degrees = %d, %d, want 2, 2", g.Degree(0), g.Degree(1))
	}
}

func TestAdjValidation(t *testing.T) {
	if _, err := NewAdj(0, nil); err == nil {
		t.Error("NewAdj(0) succeeded")
	}
	if _, err := NewAdj(2, []Edge{{0, 2}}); err == nil {
		t.Error("NewAdj with out-of-range edge succeeded")
	}
	if _, err := NewAdj(2, []Edge{{-1, 0}}); err == nil {
		t.Error("NewAdj with negative endpoint succeeded")
	}
}

func TestAdjRegularDetection(t *testing.T) {
	// 4-cycle is 2-regular.
	g := MustAdj(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if deg, ok := g.IsRegular(); !ok || deg != 2 {
		t.Errorf("IsRegular = (%d, %v), want (2, true)", deg, ok)
	}
}

// TestAdjGraphIDHashesCSR checks GraphID's chunked hash against one
// SHA-256 over the whole little-endian encoding (node count, offsets,
// neighbors) on a graph spanning many chunks, with the first call made
// from several goroutines at once: every caller sees the one memoized
// id.
func TestAdjGraphIDHashesCSR(t *testing.T) {
	g, err := NewRandomRegular(1000, 6, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var enc []byte
	for _, x := range append(append([]int64{g.NumNodes()}, g.offsets...), g.neighbors...) {
		enc = binary.LittleEndian.AppendUint64(enc, uint64(x))
	}
	sum := sha256.Sum256(enc)
	want := "adj:sha256=" + hex.EncodeToString(sum[:])
	ids := make([]string, 8)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = g.GraphID()
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if id != want {
			t.Errorf("goroutine %d: GraphID() = %s, want %s", i, id, want)
		}
	}
}

func TestRandomRegularDegreeExact(t *testing.T) {
	s := rng.New(4)
	for _, tc := range []struct {
		n int64
		d int
	}{
		{n: 50, d: 4}, {n: 101, d: 6}, {n: 200, d: 8},
	} {
		g, err := NewRandomRegular(tc.n, tc.d, s)
		if err != nil {
			t.Fatalf("NewRandomRegular(%d, %d): %v", tc.n, tc.d, err)
		}
		for v := int64(0); v < tc.n; v++ {
			if got := g.Degree(v); got != tc.d {
				t.Fatalf("n=%d d=%d: Degree(%d) = %d", tc.n, tc.d, v, got)
			}
		}
		// No self-loops: the permutation model removes fixed points.
		for v := int64(0); v < tc.n; v++ {
			for _, u := range g.Neighbors(v) {
				if u == v {
					t.Fatalf("self-loop at %d", v)
				}
			}
		}
	}
}

func TestRandomRegularValidation(t *testing.T) {
	s := rng.New(5)
	if _, err := NewRandomRegular(10, 3, s); err == nil {
		t.Error("odd degree accepted")
	}
	if _, err := NewRandomRegular(10, 0, s); err == nil {
		t.Error("zero degree accepted")
	}
	if _, err := NewRandomRegular(4, 4, s); err == nil {
		t.Error("n <= d accepted")
	}
}

func TestRandomRegularConnectedAndExpanding(t *testing.T) {
	s := rng.New(6)
	g, err := NewRandomRegular(500, 8, s)
	if err != nil {
		t.Fatal(err)
	}
	if !IsConnected(g) {
		t.Fatal("random 8-regular graph on 500 nodes disconnected (astronomically unlikely)")
	}
	lambda := SpectralGap(g, 300, s)
	// Random d-regular graphs have lambda ~ 2*sqrt(d-1)/d ~ 0.66 for
	// d=8; anything below 0.9 confirms expansion.
	if lambda >= 0.9 {
		t.Errorf("spectral gap estimate lambda = %v, want < 0.9", lambda)
	}
}

func TestSpectralGapRingMatchesTheory(t *testing.T) {
	// Odd ring on n nodes: walk-matrix eigenvalues are cos(2*pi*j/n),
	// so lambda = max(|lambda_2|, |lambda_n|) = cos(pi/n) (the most
	// negative eigenvalue dominates). An even ring is bipartite with
	// lambda_n = -1.
	const n = 41
	ring, err := NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(7)
	got := SpectralGap(ring, 4000, s)
	want := math.Cos(math.Pi / n)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("ring spectral gap = %v, want %v", got, want)
	}
}

func TestSpectralGapEvenRingBipartite(t *testing.T) {
	ring, err := NewRing(40)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(71)
	got := SpectralGap(ring, 2000, s)
	if math.Abs(got-1) > 0.01 {
		t.Errorf("even-ring lambda = %v, want ~1 (bipartite)", got)
	}
}

func TestSpectralGapCompleteGraph(t *testing.T) {
	// Complete graph K_n: all non-trivial eigenvalues are -1/(n-1).
	c := MustComplete(30)
	s := rng.New(8)
	got := SpectralGap(c, 200, s)
	want := 1.0 / 29
	if math.Abs(got-want) > 0.01 {
		t.Errorf("complete graph lambda = %v, want %v", got, want)
	}
}

func TestMixingTime(t *testing.T) {
	m := MixingTime(1000, 0.5, 0.1)
	want := int(math.Ceil(math.Log(10000) / 0.5))
	if m != want {
		t.Errorf("MixingTime = %d, want %d", m, want)
	}
	for _, tc := range []struct {
		edges         int64
		lambda, delta float64
	}{
		{100, -0.1, 0.5}, {100, 1, 0.5}, {100, 0.5, 0}, {100, 0.5, 1},
		{100, math.NaN(), 0.5}, {0, 0.5, 0.1}, {-1, 0.5, 0.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MixingTime(%d, %v, %v) did not panic", tc.edges, tc.lambda, tc.delta)
				}
			}()
			MixingTime(tc.edges, tc.lambda, tc.delta)
		}()
	}
	// A graph without edge endpoints has no walk to measure: lambda is
	// 0, not the NaN of a zero degree sum.
	for _, g := range []*Adj{MustAdj(1, nil), MustAdj(5, nil)} {
		if got := SpectralGap(g, 300, rng.New(1)); got != 0 {
			t.Errorf("SpectralGap on %d isolated nodes = %v, want 0", g.NumNodes(), got)
		}
	}
}

func TestComponentsAndConnectivity(t *testing.T) {
	// Two triangles.
	g := MustAdj(6, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	labels, count := Components(g)
	if count != 2 {
		t.Fatalf("components = %d, want 2", count)
	}
	if labels[0] != labels[1] || labels[0] != labels[2] {
		t.Error("first triangle split across components")
	}
	if labels[3] != labels[4] || labels[3] != labels[5] {
		t.Error("second triangle split across components")
	}
	if labels[0] == labels[3] {
		t.Error("triangles merged")
	}
	if IsConnected(g) {
		t.Error("disconnected graph reported connected")
	}
}

func TestIsBipartite(t *testing.T) {
	tests := []struct {
		name string
		g    Graph
		want bool
	}{
		{name: "even cycle", g: MustAdj(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}}), want: true},
		{name: "odd cycle", g: MustAdj(3, []Edge{{0, 1}, {1, 2}, {2, 0}}), want: false},
		{name: "even torus", g: MustTorus(2, 4), want: true},
		{name: "odd torus", g: MustTorus(2, 5), want: false},
		{name: "hypercube", g: MustHypercube(3), want: true},
		{name: "self loop", g: MustAdj(2, []Edge{{0, 0}, {0, 1}}), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsBipartite(tt.g); got != tt.want {
				t.Errorf("IsBipartite = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIsBipartiteClosedFormsMatchBFS(t *testing.T) {
	// The torus, hypercube and complete graph answer in closed form;
	// hidden behind a wrapper, the same graph takes the BFS coloring.
	type hidden struct{ Graph }
	var graphs []Graph
	for dims := 1; dims <= 3; dims++ {
		for side := int64(2); side <= 7; side++ {
			graphs = append(graphs, MustTorus(dims, side))
		}
	}
	for bits := 1; bits <= 6; bits++ {
		graphs = append(graphs, MustHypercube(bits))
	}
	for n := int64(2); n <= 6; n++ {
		graphs = append(graphs, MustComplete(n))
	}
	for _, g := range graphs {
		if got, want := IsBipartite(g), IsBipartite(hidden{g}); got != want {
			t.Errorf("%T with %d nodes: closed form %v, BFS %v", g, g.NumNodes(), got, want)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	// Path 0-1-2-3 plus isolated node 4.
	g := MustAdj(5, []Edge{{0, 1}, {1, 2}, {2, 3}})
	dist := BFSDistances(g, 0)
	want := []int64{0, 1, 2, 3, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
	if got := Eccentricity(g, 0); got != 3 {
		t.Errorf("Eccentricity = %d, want 3", got)
	}
}

func TestLargestComponent(t *testing.T) {
	// A triangle (0,1,2) and an edge (3,4): largest has 3 nodes.
	g := MustAdj(5, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}})
	sub, mapping := LargestComponent(g)
	if sub.NumNodes() != 3 {
		t.Fatalf("largest component has %d nodes, want 3", sub.NumNodes())
	}
	if !IsConnected(sub) {
		t.Error("largest component not connected")
	}
	if NumEdges(sub) != 3 {
		t.Errorf("largest component has %d edges, want 3", NumEdges(sub))
	}
	for newID, oldID := range mapping {
		if oldID > 2 {
			t.Errorf("mapping[%d] = %d belongs to the smaller component", newID, oldID)
		}
	}
}

func TestNumEdges(t *testing.T) {
	if got := NumEdges(MustTorus(2, 5)); got != 50 {
		t.Errorf("torus 5x5 edges = %d, want 50", got)
	}
	if got := NumEdges(MustComplete(6)); got != 15 {
		t.Errorf("K6 edges = %d, want 15", got)
	}
	if got := NumEdges(MustAdj(3, []Edge{{0, 1}, {1, 2}})); got != 2 {
		t.Errorf("path edges = %d, want 2", got)
	}
}

func TestRandomStepOnIsolatedNode(t *testing.T) {
	g := MustAdj(2, []Edge{{0, 0}})
	s := rng.New(9)
	if got := RandomStep(g, 1, s); got != 1 {
		t.Errorf("RandomStep on isolated node moved to %d", got)
	}
}

func TestWalkEndpointMatchesPath(t *testing.T) {
	g := MustTorus(2, 11)
	s1, s2 := rng.New(10), rng.New(10)
	end := Walk(g, 0, 50, s1)
	path := WalkPath(g, 0, 50, s2)
	if end != path[50] {
		t.Errorf("Walk = %d, WalkPath end = %d", end, path[50])
	}
}
