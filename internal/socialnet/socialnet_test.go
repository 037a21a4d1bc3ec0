package socialnet

import (
	"math"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

func TestBarabasiAlbertBasics(t *testing.T) {
	s := rng.New(1)
	g, err := BarabasiAlbert(500, 3, s)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Every non-seed node contributes exactly m edges; the seed star
	// contributes m. Total edges = m + (n - m - 1) * m.
	wantEdges := int64(3 + (500-4)*3)
	if got := topology.NumEdges(g); got != wantEdges {
		t.Errorf("edges = %d, want %d", got, wantEdges)
	}
	if !topology.IsConnected(g) {
		t.Error("BA graph disconnected")
	}
}

func TestBarabasiAlbertHeavyTail(t *testing.T) {
	s := rng.New(2)
	g, err := BarabasiAlbert(3000, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	st := Degrees(g)
	// Preferential attachment: the max degree should far exceed the
	// mean (power-law tail), and the min is the attachment count.
	if float64(st.Max) < 5*st.Mean {
		t.Errorf("max degree %d not heavy-tailed vs mean %v", st.Max, st.Mean)
	}
	if st.Min < 2 {
		t.Errorf("min degree %d, want >= 2", st.Min)
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	s := rng.New(3)
	if _, err := BarabasiAlbert(3, 3, s); err == nil {
		t.Error("n <= m accepted")
	}
	if _, err := BarabasiAlbert(10, 0, s); err == nil {
		t.Error("m = 0 accepted")
	}
}

func TestErdosRenyiEdgeCount(t *testing.T) {
	s := rng.New(4)
	const n, p = 400, 0.05
	g, err := ErdosRenyi(n, p, s)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n*(n-1)/2) * p
	got := float64(topology.NumEdges(g))
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("edge count = %v, want ~%v", got, want)
	}
	// No self-loops, no duplicate pairs.
	seen := map[[2]int64]bool{}
	for v := int64(0); v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if u == v {
				t.Fatalf("self-loop at %d", v)
			}
			if u > v {
				key := [2]int64{v, u}
				if seen[key] {
					t.Fatalf("duplicate edge %v", key)
				}
				seen[key] = true
			}
		}
	}
}

func TestErdosRenyiFullGraph(t *testing.T) {
	s := rng.New(5)
	g, err := ErdosRenyi(20, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := topology.NumEdges(g), int64(190); got != want {
		t.Errorf("p=1 edges = %d, want %d", got, want)
	}
}

func TestErdosRenyiValidation(t *testing.T) {
	s := rng.New(6)
	if _, err := ErdosRenyi(1, 0.5, s); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ErdosRenyi(10, 0, s); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := ErdosRenyi(10, 1.5, s); err == nil {
		t.Error("p>1 accepted")
	}
}

func TestPairFromIndex(t *testing.T) {
	wants := [][2]int64{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}, {0, 4}}
	for k, want := range wants {
		u, v := pairFromIndex(int64(k))
		if u != want[0] || v != want[1] {
			t.Errorf("pairFromIndex(%d) = (%d, %d), want %v", k, u, v, want)
		}
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	s := rng.New(7)
	// beta = 0: pure ring lattice, 2k-regular.
	g, err := WattsStrogatz(100, 3, 0, s)
	if err != nil {
		t.Fatal(err)
	}
	if deg, ok := g.IsRegular(); !ok || deg != 6 {
		t.Errorf("beta=0 lattice: IsRegular = (%d, %v), want (6, true)", deg, ok)
	}
	if !topology.IsConnected(g) {
		t.Error("lattice disconnected")
	}
}

func TestWattsStrogatzRewiringChangesGraph(t *testing.T) {
	s := rng.New(8)
	g, err := WattsStrogatz(200, 2, 0.5, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := topology.NumEdges(g); got != 400 {
		t.Errorf("edge count changed by rewiring: %d, want 400", got)
	}
	if _, ok := g.IsRegular(); ok {
		t.Error("beta=0.5 graph is still regular; rewiring had no effect")
	}
	// No self-loops.
	for v := int64(0); v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			if u == v {
				t.Fatalf("self-loop at %d", v)
			}
		}
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	s := rng.New(9)
	if _, err := WattsStrogatz(5, 2, 0, s); err == nil {
		t.Error("n < 2k+2 accepted")
	}
	if _, err := WattsStrogatz(100, 0, 0, s); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := WattsStrogatz(100, 2, 1.5, s); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestConnectedExtractsComponent(t *testing.T) {
	// Handcrafted disconnected graph.
	g := topology.MustAdj(6, []topology.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}})
	sub := Connected(g)
	if sub.NumNodes() != 3 || !topology.IsConnected(sub) {
		t.Errorf("Connected returned %d nodes, want 3 connected", sub.NumNodes())
	}
}

func TestDegreesStats(t *testing.T) {
	g := topology.MustAdj(4, []topology.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}})
	st := Degrees(g)
	if st.Min != 1 || st.Max != 3 {
		t.Errorf("Min/Max = %d/%d, want 1/3", st.Min, st.Max)
	}
	if math.Abs(st.Mean-1.5) > 1e-12 {
		t.Errorf("Mean = %v, want 1.5", st.Mean)
	}
	if math.Abs(st.SumSquares-(1+9+1+1)) > 1e-12 {
		t.Errorf("SumSquares = %v, want 12", st.SumSquares)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	build := func(seed uint64) int64 {
		s := rng.New(seed)
		g, err := BarabasiAlbert(200, 2, s)
		if err != nil {
			t.Fatal(err)
		}
		var sig int64
		for v := int64(0); v < g.NumNodes(); v++ {
			sig = sig*31 + int64(g.Degree(v))
		}
		return sig
	}
	if build(42) != build(42) {
		t.Error("BarabasiAlbert not deterministic for fixed seed")
	}
	if build(42) == build(43) {
		t.Error("BarabasiAlbert ignores seed")
	}
}
