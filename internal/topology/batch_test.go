package topology

import (
	"testing"

	"antdensity/internal/rng"
)

func TestFastDivMatchesHardwareDivision(t *testing.T) {
	s := rng.New(2024)
	divisors := []uint64{1, 2, 3, 5, 512, 513, 4096, 1 << 31, 1<<31 + 1, 1000003, 1 << 62}
	for _, d := range divisors {
		m := ^uint64(0) / d
		values := []uint64{0, 1, d - 1, d, d + 1, 1<<63 - 1}
		for i := 0; i < 2000; i++ {
			values = append(values[:6], s.Uint64()>>1) // < 2^63
			for _, v := range values {
				if got, want := fastDiv(v, d, m), v/d; got != want {
					t.Fatalf("fastDiv(%d, %d) = %d, want %d", v, d, got, want)
				}
			}
		}
	}
}

func TestTorusStepMatchesCoordinateArithmetic(t *testing.T) {
	cases := []struct {
		dims int
		side int64
	}{{1, 2}, {1, 7}, {1, 262144}, {2, 2}, {2, 3}, {2, 512}, {2, 1000000}, {3, 2}, {3, 17}, {4, 5}}
	for _, c := range cases {
		tor := MustTorus(c.dims, c.side)
		s := rng.New(uint64(c.dims)<<32 ^ uint64(c.side))
		for trial := 0; trial < 500; trial++ {
			v := int64(s.Uint64n(uint64(tor.NumNodes())))
			i := s.Intn(2 * c.dims)
			got := tor.Neighbor(v, i)
			// Reference: decode, wrap one coordinate, re-encode.
			coords := tor.Coords(v)
			dim := i / 2
			if i%2 == 0 {
				coords[dim] = (coords[dim] + 1) % c.side
			} else {
				coords[dim] = (coords[dim] - 1 + c.side) % c.side
			}
			if want := tor.Node(coords...); got != want {
				t.Fatalf("torus(%d,%d): Neighbor(%d, %d) = %d, want %d", c.dims, c.side, v, i, got, want)
			}
		}
	}
}

// graphOnly hides a graph's concrete type so Stepper and the sim fast
// paths fall back to the generic scalar route.
type graphOnly struct{ Graph }

// TestRandomStepsIntoMatchesScalar checks every batched kernel against
// RandomStep: positions, stream state, and draws[k] against the
// neighbor index the scalar step drew. complete-huge has a draw bound
// of 3·2^61 - 1, so about one first draw in four falls in Lemire's
// rejected fringe and the redraw path runs every round.
func TestRandomStepsIntoMatchesScalar(t *testing.T) {
	graphs := map[string]Graph{
		"ring":          MustTorus(1, 1024),
		"torus2d":       MustTorus(2, 512),
		"torus3d":       MustTorus(3, 31),
		"hypercube":     MustHypercube(10),
		"complete":      MustComplete(1000),
		"complete-huge": MustComplete(3 << 61),
	}
	for name, g := range graphs {
		root := rng.New(77)
		const agents = 300
		batched := make([]rng.Stream, agents)
		scalar := make([]rng.Stream, agents)
		posB := make([]int64, agents)
		posS := make([]int64, agents)
		for i := range batched {
			batched[i] = root.SplitValue(uint64(i))
			scalar[i] = batched[i]
			p := int64(root.Uint64n(uint64(g.NumNodes())))
			posB[i], posS[i] = p, p
		}
		draws := make([]uint64, agents)
		want := make([]uint64, agents)
		for round := 0; round < 20; round++ {
			switch gr := g.(type) {
			case *Torus:
				gr.RandomStepsInto(posB, batched, draws)
			case *Hypercube:
				gr.RandomStepsInto(posB, batched, draws)
			case *Complete:
				gr.RandomStepsInto(posB, batched, draws)
			}
			for i := range posS {
				probe := scalar[i] // RandomStep draws Intn(degree) first
				want[i] = uint64(probe.Intn(g.Degree(posS[i])))
				posS[i] = RandomStep(g, posS[i], &scalar[i])
			}
			for i := range posB {
				if posB[i] != posS[i] {
					t.Fatalf("%s round %d agent %d: batched %d, scalar %d", name, round, i, posB[i], posS[i])
				}
				if batched[i] != scalar[i] {
					t.Fatalf("%s round %d agent %d: stream state diverged", name, round, i)
				}
				if draws[i] != want[i] {
					t.Fatalf("%s round %d agent %d: draws %d, scalar drew index %d", name, round, i, draws[i], want[i])
				}
			}
		}
	}
}

func TestAdjRandomStepsInto(t *testing.T) {
	// On a regular CSR graph, RandomSteps must make the fixed-bound
	// draw-and-step pass of the arithmetic topologies' RandomStepsInto:
	// one rng.Uint64nEach draw below the common degree per walker, then
	// the neighbour that draw indexes. The graph is a regular
	// multigraph, a 12-cycle with every edge doubled plus a self-loop
	// per node (degree 5 everywhere), for multi-edges and loops.
	const n = 12
	var edges []Edge
	for v := int64(0); v < n; v++ {
		edges = append(edges, Edge{v, (v + 1) % n}, Edge{v, (v + 1) % n}, Edge{v, v})
	}
	g := MustAdj(n, edges)
	d, ok := g.IsRegular()
	if !ok || d != 5 {
		t.Fatalf("test graph: IsRegular() = %d, %v; want 5, true", d, ok)
	}

	root := rng.New(3)
	const agents = 64
	bulk := make([]rng.Stream, agents)
	fixed := make([]rng.Stream, agents)
	posB := make([]int64, agents)
	posF := make([]int64, agents)
	for i := range bulk {
		bulk[i] = root.SplitValue(uint64(i))
		fixed[i] = bulk[i]
		p := int64(root.Uint64n(n))
		posB[i], posF[i] = p, p
	}
	draws := make([]uint64, agents)
	for round := 0; round < 50; round++ {
		g.RandomSteps(posB, bulk)
		rng.Uint64nEach(fixed, uint64(d), draws)
		for i, v := range posF {
			posF[i] = g.Neighbor(v, int(draws[i]))
		}
		for i := range posB {
			if posB[i] != posF[i] || bulk[i] != fixed[i] {
				t.Fatalf("round %d agent %d: RandomSteps (%d) and the fixed-bound pass (%d) diverged", round, i, posB[i], posF[i])
			}
		}
	}
}

func TestStepperBulkMatchesStepper(t *testing.T) {
	var cycle []Edge
	for v := int64(0); v < 40; v++ {
		cycle = append(cycle, Edge{v, (v + 1) % 40})
	}
	graphs := map[string]Graph{
		"ring":        MustTorus(1, 512),
		"torus2d":     MustTorus(2, 64),
		"hypercube":   MustHypercube(8),
		"complete":    MustComplete(100),
		"adj-regular": MustAdj(40, cycle),
	}
	for name, g := range graphs {
		fill, apply, ok := StepperBulk(g)
		if !ok {
			t.Fatalf("%s: StepperBulk not available", name)
		}
		step := Stepper(g)
		sBulk := rng.New(11)
		sScalar := rng.New(11)
		pBulk := int64(5 % g.NumNodes())
		pScalar := pBulk
		buf := make([]uint64, 37) // deliberately odd chunk size
		for chunk := 0; chunk < 10; chunk++ {
			fill(sBulk, buf)
			for _, d := range buf {
				pBulk = apply(pBulk, d)
			}
			for range buf {
				pScalar = step(pScalar, sScalar)
			}
			if pBulk != pScalar {
				t.Fatalf("%s chunk %d: bulk walker at %d, scalar at %d", name, chunk, pBulk, pScalar)
			}
			if *sBulk != *sScalar {
				t.Fatalf("%s chunk %d: stream state diverged", name, chunk)
			}
		}
	}

	for name, g := range map[string]Graph{
		"adj-irregular": MustAdj(3, []Edge{{0, 1}}),
		"opaque":        graphOnly{MustTorus(1, 8)},
	} {
		if _, _, ok := StepperBulk(g); ok {
			t.Fatalf("%s: StepperBulk unexpectedly available", name)
		}
	}
}
