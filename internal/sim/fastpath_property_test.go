package sim

import (
	"fmt"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// TestFastPathBitIdentical is the equivalence bar for the hot-path
// rewrite: across the regular topology families plus irregular and
// regular-multigraph CSR graphs, and all five built-in policies, on
// randomized worlds with random tag sets and group assignments, worlds
// on every execution path — the uniform-policy dispatch (batched
// kernel where the policy/topology pair has one) with a dense index,
// and sharded worlds — must be bit-identical — positions, rounds, and
// every count variant — to a reference world forced onto the sparse
// map and the scalar per-agent stepping path. The matrix is
// uniform-vs-per-agent stepping × dense-vs-sparse occupancy ×
// shards ∈ {1, 2, 7} (2 sharded serially with dense slabs, 7 sharded
// in parallel through the pool with forced-sparse slabs, proving the
// shards=1-vs-K invariant across both slab representations).
func TestFastPathBitIdentical(t *testing.T) {
	topologies := []struct {
		name string
		make func() topology.Graph
	}{
		{name: "torus2d", make: func() topology.Graph { return topology.MustTorus(2, 8) }},
		{name: "ring", make: func() topology.Graph {
			g, err := topology.NewRing(50)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{name: "hypercube", make: func() topology.Graph { return topology.MustHypercube(6) }},
		{name: "complete", make: func() topology.Graph { return topology.MustComplete(40) }},
		{name: "adjacency", make: func() topology.Graph {
			// An irregular CSR graph: a 40-cycle with chords, so every
			// node has degree >= 2 and the two-weight biased policy and
			// drift stay valid on the scalar path.
			const n = 40
			edges := make([]topology.Edge, 0, n+n/4)
			for v := int64(0); v < n; v++ {
				edges = append(edges, topology.Edge{U: v, V: (v + 1) % n})
			}
			for v := int64(0); v < n; v += 4 {
				edges = append(edges, topology.Edge{U: v, V: (v + n/2) % n})
			}
			return topology.MustAdj(n, edges)
		}},
		{name: "multigraph", make: func() topology.Graph {
			// A *regular* CSR multigraph — a 24-cycle with every edge
			// doubled plus a self-loop per node (degree 5 everywhere) —
			// so the batched CSR kernel (which requires regularity)
			// engages, with self-loops and multi-edges in play.
			const n = 24
			edges := make([]topology.Edge, 0, 3*n)
			for v := int64(0); v < n; v++ {
				next := (v + 1) % n
				edges = append(edges,
					topology.Edge{U: v, V: next},
					topology.Edge{U: v, V: next},
					topology.Edge{U: v, V: v})
			}
			return topology.MustAdj(n, edges)
		}},
	}
	policies := []struct {
		name string
		make func(t *testing.T) Policy
	}{
		{name: "randomwalk", make: func(*testing.T) Policy { return RandomWalk{} }},
		{name: "stationary", make: func(*testing.T) Policy { return Stationary{} }},
		{name: "drift", make: func(*testing.T) Policy { return Drift{Direction: 0} }},
		{name: "lazy", make: func(*testing.T) Policy { return Lazy{StayProb: 0.35} }},
		{name: "biased", make: func(t *testing.T) Policy {
			// Two weights keep the policy valid on the ring (degree 2)
			// while still exercising the non-uniform sampling loop.
			b, err := NewBiased([]float64{2, 1})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
	for _, tp := range topologies {
		for _, pl := range policies {
			t.Run(tp.name+"/"+pl.name, func(t *testing.T) {
				g := tp.make()
				s := rng.New(uint64(len(tp.name)+13*len(pl.name)) * 999983)
				const cases = 6
				for c := 0; c < cases; c++ {
					agents := 8 + s.Intn(2*int(g.NumNodes()))
					seed := s.Uint64()
					fast := MustWorld(Config{
						Graph: g, NumAgents: agents, Seed: seed,
						Policy: pl.make(t), Occupancy: OccDense,
					})
					slow := MustWorld(Config{
						Graph: g, NumAgents: agents, Seed: seed,
						Policy: pl.make(t), Occupancy: OccSparse,
					})
					sh2 := MustWorld(Config{
						Graph: g, NumAgents: agents, Seed: seed,
						Policy: pl.make(t), Shards: 2,
					})
					sh7 := MustWorld(Config{
						Graph: g, NumAgents: agents, Seed: seed,
						Policy: pl.make(t), Shards: 7, Occupancy: OccSparse,
					})
					// Re-setting each agent's policy clears the
					// uniform-policy invariant, pinning slow to the
					// scalar per-agent stepping path.
					scalarPolicy := pl.make(t)
					for i := 0; i < agents; i++ {
						slow.SetPolicy(i, scalarPolicy)
					}
					for i := 0; i < agents; i++ {
						tagOn := s.Bernoulli(0.3)
						grp := s.Intn(3)
						for _, w := range []*World{fast, slow, sh2, sh7} {
							w.SetTagged(i, tagOn)
							w.SetGroup(i, grp)
						}
					}
					for r := 0; r < 5; r++ {
						fast.Step()
						slow.Step()
						sh2.Step()
						sh7.StepParallel(3)
						ctx := fmt.Sprintf("%s/%s case %d round %d", tp.name, pl.name, c, r)
						compareWorlds(t, slow, fast, ctx+" dense+uniform")
						compareWorlds(t, slow, sh2, ctx+" sharded2+serial")
						compareWorlds(t, slow, sh7, ctx+" sharded7+sparse+parallel")
						if t.Failed() {
							return
						}
					}
					sh7.Close()
				}
			})
		}
	}
}

// compareWorlds asserts want and got agree on every observable:
// positions, round counter, and all count variants — per agent and
// bulk — for totals, tags, and groups 1 and 2.
func compareWorlds(t *testing.T, want, got *World, ctx string) {
	t.Helper()
	if want.Round() != got.Round() {
		t.Errorf("%s: round %d != %d", ctx, got.Round(), want.Round())
		return
	}
	wc, gc := want.CountsAll(), got.CountsAll()
	wt, gt := want.CountsTaggedAll(), got.CountsTaggedAll()
	wg1, gg1 := want.CountsInGroupAll(1), got.CountsInGroupAll(1)
	wg2, gg2 := want.CountsInGroupAll(2), got.CountsInGroupAll(2)
	for i := 0; i < want.NumAgents(); i++ {
		if want.Pos(i) != got.Pos(i) {
			t.Errorf("%s agent %d: position %d != %d", ctx, i, got.Pos(i), want.Pos(i))
			return
		}
		if wc[i] != gc[i] {
			t.Errorf("%s agent %d: count %d != %d", ctx, i, gc[i], wc[i])
			return
		}
		if wt[i] != gt[i] {
			t.Errorf("%s agent %d: tagged count %d != %d", ctx, i, gt[i], wt[i])
			return
		}
		if wg1[i] != gg1[i] || wg2[i] != gg2[i] {
			t.Errorf("%s agent %d: bulk group counts (%d, %d) != (%d, %d)", ctx, i, gg1[i], gg2[i], wg1[i], wg2[i])
			return
		}
		if want.Count(i) != got.Count(i) || want.CountTagged(i) != got.CountTagged(i) {
			t.Errorf("%s agent %d: per-agent count mismatch", ctx, i)
			return
		}
		for _, grp := range []int{1, 2} {
			if w, g := want.CountInGroup(i, grp), got.CountInGroup(i, grp); w != g {
				t.Errorf("%s agent %d group %d: %d != %d", ctx, i, grp, g, w)
				return
			}
		}
	}
}

// TestAdjBulkHandlesIsolatedAndLoops pins the CSR kernels' degree edge
// cases inside the simulator: agents pinned on an isolated node must
// stay put without consuming randomness, and self-loops must behave
// exactly as on the scalar path, for every policy with a CSR batched
// arm (Lazy with StayProb 0 is a plain random walk and takes the same
// arm as RandomWalk).
func TestAdjBulkHandlesIsolatedAndLoops(t *testing.T) {
	g := topology.MustAdj(5, []topology.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, // triangle
		{U: 2, V: 2}, // self-loop
		{U: 0, V: 3},
	}) // node 4 is isolated
	positions := []int64{0, 1, 2, 3, 4, 4, 2}
	for _, pl := range []struct {
		name   string
		policy Policy
	}{
		{name: "randomwalk", policy: RandomWalk{}},
		{name: "lazy", policy: Lazy{StayProb: 0.3}},
		{name: "lazy0", policy: Lazy{StayProb: 0}},
	} {
		t.Run(pl.name, func(t *testing.T) {
			fast := MustWorld(Config{
				Graph: g, NumAgents: len(positions), Seed: 99,
				Policy: pl.policy, Positions: positions,
			})
			slow := MustWorld(Config{
				Graph: g, NumAgents: len(positions), Seed: 99,
				Policy: pl.policy, Positions: positions,
			})
			// Per-agent policies pin slow to the scalar stepping path.
			for i := range positions {
				slow.SetPolicy(i, pl.policy)
			}
			for r := 0; r < 30; r++ {
				fast.Step()
				slow.Step()
				compareWorlds(t, slow, fast, fmt.Sprintf("%s round %d", pl.name, r))
				if t.Failed() {
					return
				}
				if fast.Pos(4) != 4 || fast.Pos(5) != 4 {
					t.Fatalf("round %d: agents left the isolated node: %d, %d", r, fast.Pos(4), fast.Pos(5))
				}
			}
		})
	}
}

// TestOccupancyIndexSelection pins the OccAuto budget rule and the
// explicit-selection error path.
func TestOccupancyIndexSelection(t *testing.T) {
	small := MustWorld(Config{Graph: topology.MustTorus(2, 64), NumAgents: 10, Seed: 1})
	if small.occMode != OccDense {
		t.Error("OccAuto on a 4096-node torus should pick the dense index")
	}
	if small.occ.dense != nil {
		t.Error("dense storage should not be allocated before the first count query")
	}
	small.Count(0)
	if small.occ.dense == nil {
		t.Error("dense storage missing after the first count query")
	}
	// 2100^2 = 4.41M nodes exceeds the 1<<22 auto budget.
	big := MustWorld(Config{Graph: topology.MustTorus(2, 2100), NumAgents: 10, Seed: 1})
	if big.occMode != OccSparse {
		t.Error("OccAuto on a 4.41M-node torus should pick the sparse index")
	}
	forced := MustWorld(Config{Graph: topology.MustTorus(2, 2100), NumAgents: 10, Seed: 1, Occupancy: OccDense})
	if forced.occMode != OccDense {
		t.Error("OccDense was not honored within the force limit")
	}
	// 10^8 nodes exceeds the 1<<26 force limit.
	if _, err := NewWorld(Config{Graph: topology.MustTorus(2, 10000), NumAgents: 10, Seed: 1, Occupancy: OccDense}); err == nil {
		t.Error("OccDense beyond the force limit should error")
	}
	if _, err := NewWorld(Config{Graph: topology.MustTorus(2, 8), NumAgents: 10, Seed: 1, Occupancy: OccupancyIndex(99)}); err == nil {
		t.Error("unknown occupancy selector should error")
	}
}

// TestSparseOccupancyStaysBounded guards the delete-on-empty rule: on
// a graph far larger than the population, the sparse index must stay
// bounded by the agent count as the population wanders, not accumulate
// every node ever visited.
func TestSparseOccupancyStaysBounded(t *testing.T) {
	g := topology.MustTorus(2, 3000) // 9M nodes, sparse under OccAuto
	const agents = 200
	w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 5})
	w.Count(0) // activate the index
	for r := 0; r < 300; r++ {
		w.Step()
		if n := w.occ.sparse.used; n > agents {
			t.Fatalf("round %d: sparse index holds %d cells for %d agents", r, n, agents)
		}
	}
}

// TestLiveIndexPatching covers the SetTagged/SetGroup fast path that
// patches a *live* occupancy index in place (every other test tags
// before the first count query, while the index is still dirty). For
// both representations, toggling tags and groups after Count has built
// the index must agree with brute force over positions.
func TestLiveIndexPatching(t *testing.T) {
	for _, mode := range []OccupancyIndex{OccDense, OccSparse} {
		name := map[OccupancyIndex]string{OccDense: "dense", OccSparse: "sparse"}[mode]
		t.Run(name, func(t *testing.T) {
			g := topology.MustTorus(2, 5) // small grid forces collisions
			const agents = 60
			w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 21, Occupancy: mode})
			s := rng.New(77)
			for r := 0; r < 10; r++ {
				w.Step()
				_ = w.Count(0) // make (and keep) the index live
				for k := 0; k < 8; k++ {
					i := s.Intn(agents)
					w.SetTagged(i, !w.Tagged(i))
					w.SetGroup(s.Intn(agents), s.Intn(3))
				}
				for i := 0; i < agents; i++ {
					wantTag, wantGrp1 := 0, 0
					for j := 0; j < agents; j++ {
						if j == i || w.Pos(j) != w.Pos(i) {
							continue
						}
						if w.Tagged(j) {
							wantTag++
						}
						if w.Group(j) == 1 {
							wantGrp1++
						}
					}
					if got := w.CountTagged(i); got != wantTag {
						t.Fatalf("%s round %d agent %d: CountTagged = %d, brute force = %d", name, r, i, got, wantTag)
					}
					if got := w.CountInGroup(i, 1); got != wantGrp1 {
						t.Fatalf("%s round %d agent %d: CountInGroup = %d, brute force = %d", name, r, i, got, wantGrp1)
					}
				}
			}
		})
	}
}
