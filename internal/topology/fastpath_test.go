package topology

import (
	"testing"

	"antdensity/internal/rng"
)

// regularFastGraphs are the topologies with arithmetic fast-path
// kernels, paired with generic-interface twins for equivalence checks.
func regularFastGraphs(t *testing.T) []Regular {
	t.Helper()
	ring, err := NewRing(17)
	if err != nil {
		t.Fatal(err)
	}
	return []Regular{MustTorus(2, 9), MustTorus(3, 4), ring, MustHypercube(7), MustComplete(23)}
}

func TestNeighborUncheckedMatchesNeighbor(t *testing.T) {
	for _, g := range regularFastGraphs(t) {
		deg := g.CommonDegree()
		for v := int64(0); v < g.NumNodes(); v++ {
			for i := 0; i < deg; i++ {
				want := g.Neighbor(v, i)
				var got int64
				switch c := g.(type) {
				case *Torus:
					got = c.NeighborUnchecked(v, i)
				case *Hypercube:
					got = c.NeighborUnchecked(v, i)
				case *Complete:
					got = c.NeighborUnchecked(v, i)
				}
				if got != want {
					t.Fatalf("%T: NeighborUnchecked(%d, %d) = %d, Neighbor = %d", g, v, i, got, want)
				}
			}
		}
	}
}

// testAdj builds an irregular CSR graph with a multi-edge, a
// self-loop, and an isolated node — the degree shapes the CSR kernels
// must handle bit-identically to the generic Degree/Neighbor path.
func testAdj(t *testing.T) *Adj {
	t.Helper()
	g, err := NewAdj(6, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}, // cycle
		{U: 0, V: 2}, {U: 0, V: 2}, // multi-edge
		{U: 3, V: 3}, // self-loop
		{U: 1, V: 4},
	}) // node 5 is isolated
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAdjNeighborUncheckedMatchesNeighbor(t *testing.T) {
	g := testAdj(t)
	for v := int64(0); v < g.NumNodes(); v++ {
		for i := 0; i < g.Degree(v); i++ {
			if got, want := g.NeighborUnchecked(v, i), g.Neighbor(v, i); got != want {
				t.Fatalf("NeighborUnchecked(%d, %d) = %d, Neighbor = %d", v, i, got, want)
			}
		}
	}
}

func TestAdjRandomStepsMatchesRandomStep(t *testing.T) {
	// RandomSteps (the bulk kernel) and RandomStepFrom (one walker)
	// both draw inline; each must track the scalar RandomStep draw for
	// draw.
	g := testAdj(t)
	const agents = 48
	root := rng.New(53)
	bulkStreams := make([]rng.Stream, agents)
	fromStreams := make([]rng.Stream, agents)
	scalarStreams := make([]*rng.Stream, agents)
	pos := make([]int64, agents)
	from := make([]int64, agents)
	ref := make([]int64, agents)
	for i := range pos {
		bulkStreams[i] = root.SplitValue(uint64(i))
		fromStreams[i] = root.SplitValue(uint64(i))
		scalarStreams[i] = root.Split(uint64(i))
		// Every node is a start, including the isolated one, which must
		// stay put without consuming a draw.
		pos[i] = int64(i) % g.NumNodes()
		from[i] = pos[i]
		ref[i] = pos[i]
	}
	for round := 0; round < 40; round++ {
		g.RandomSteps(pos, bulkStreams)
		for i := range from {
			from[i] = g.RandomStepFrom(from[i], &fromStreams[i])
		}
		for i := range ref {
			ref[i] = RandomStep(g, ref[i], scalarStreams[i])
		}
		for i := range ref {
			if pos[i] != ref[i] || from[i] != ref[i] {
				t.Fatalf("round %d agent %d: RandomSteps %d, RandomStepFrom %d, scalar %d", round, i, pos[i], from[i], ref[i])
			}
			if bulkStreams[i] != *scalarStreams[i] || fromStreams[i] != *scalarStreams[i] {
				t.Fatalf("round %d agent %d: stream states diverged from the scalar step's", round, i)
			}
		}
	}
	for i := range pos {
		if int64(i)%g.NumNodes() == 5 && (pos[i] != 5 || from[i] != 5) {
			t.Fatalf("agent %d left the isolated node: RandomSteps %d, RandomStepFrom %d", i, pos[i], from[i])
		}
	}
}

func TestDrawBelowMatchesUint64n(t *testing.T) {
	// No CSR graph has a degree that makes drawBelow's fringe likely,
	// so the draw is checked here against Uint64n directly: on small
	// bounds, and on 3·2^61 (a low half below n in 3 draws of 8, and
	// below the threshold in 1 of 4, so the fringe both keeps and
	// rejects first draws) and 2^63+1 (about half the first draws
	// rejected).
	var bounds []uint64
	for n := uint64(1); n <= 64; n++ {
		bounds = append(bounds, n)
	}
	bounds = append(bounds, 3<<61, 1<<63+1)
	root := rng.New(97)
	for _, n := range bounds {
		for k := uint64(0); k < 200; k++ {
			s := root.SplitValue(k)
			want := s
			x, next := s.Next()
			s = next
			got := drawBelow(x, n, &s)
			if w := want.Uint64n(n); got != w || s != want {
				t.Fatalf("bound %d, stream %d: drawBelow %d, Uint64n %d (streams equal: %v)", n, k, got, w, s == want)
			}
		}
	}
}

func TestAdjWalkMatchesScalarReference(t *testing.T) {
	g := testAdj(t)
	for start := int64(0); start < g.NumNodes(); start++ {
		s1, s2 := rng.New(7+uint64(start)), rng.New(7+uint64(start))
		got := Walk(g, start, 64, s1)
		want := start
		for i := 0; i < 64; i++ {
			want = RandomStep(g, want, s2)
		}
		if got != want {
			t.Fatalf("start %d: Walk = %d, scalar reference = %d", start, got, want)
		}
	}
}

func TestStepperMatchesRandomStep(t *testing.T) {
	graphs := []Graph{MustTorus(2, 9), MustHypercube(7), MustComplete(23)}
	// Adjacency graphs exercise the CSR closure, including irregular
	// degrees, a self-loop, a multi-edge, and an isolated start.
	adj, err := NewAdj(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, adj, testAdj(t))
	for _, g := range graphs {
		step := Stepper(g)
		s1 := rng.New(41)
		s2 := rng.New(41)
		v1 := int64(0)
		v2 := int64(0)
		for i := 0; i < 200; i++ {
			v1 = step(v1, s1)
			v2 = RandomStep(g, v2, s2)
			if v1 != v2 {
				t.Fatalf("%T step %d: Stepper %d, RandomStep %d", g, i, v1, v2)
			}
		}
	}
}

func TestWalkValidatesStartNode(t *testing.T) {
	g := MustTorus(1, 10)
	for name, f := range map[string]func(){
		"Walk":         func() { Walk(g, 15, 3, rng.New(1)) },
		"WalkPath":     func() { WalkPath(g, -1, 3, rng.New(1)) },
		"ValidateNode": func() { ValidateNode(g, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with an out-of-range start did not panic", name)
				}
			}()
			f()
		}()
	}
}
