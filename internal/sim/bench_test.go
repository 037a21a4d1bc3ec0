package sim

import (
	"fmt"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/socialnet"
	"antdensity/internal/topology"
)

// Microbenchmarks for the simulation hot path. One op of
// BenchmarkWorldStep is a single synchronous round of movement; one op
// of BenchmarkWorldCount is a full Algorithm 1 inner round (Step once,
// then serve Count for every agent). Before/after numbers for PR 2 are
// recorded in BENCH_PR2.json at the repository root.

type benchTopo struct {
	name string
	make func() topology.Graph
}

// benchTopos covers all four regular families, and a random 8-regular
// CSR graph, which steps through the kernel irregular CSR graphs use
// ((*Adj).RandomSteps). torus2d-4096 (16.8M nodes) exceeds the dense
// occupancy budget and exercises the sparse hash index; torus2d-2048
// (4.2M nodes, 16 MiB of dense totals) is the largest OccAuto dense
// world, where the index update's scattered ±1 pass misses cache on
// nearly every touch; the rest fit well inside the budget.
func benchTopos() []benchTopo {
	return []benchTopo{
		{"torus2d-512", func() topology.Graph { return topology.MustTorus(2, 512) }},
		{"torus2d-2048", func() topology.Graph { return topology.MustTorus(2, 2048) }},
		{"torus2d-4096", func() topology.Graph { return topology.MustTorus(2, 4096) }},
		{"ring-262144", func() topology.Graph {
			g, err := topology.NewRing(262144)
			if err != nil {
				panic(err)
			}
			return g
		}},
		{"hypercube-18", func() topology.Graph { return topology.MustHypercube(18) }},
		{"complete-65536", func() topology.Graph { return topology.MustComplete(65536) }},
		{"regular8-20000", func() topology.Graph {
			g, err := topology.NewRandomRegular(20000, 8, rng.New(1))
			if err != nil {
				panic(err)
			}
			return g
		}},
	}
}

func BenchmarkWorldStep(b *testing.B) {
	for _, tp := range benchTopos() {
		for _, agents := range []int{10000, 100000} {
			b.Run(fmt.Sprintf("%s/%d", tp.name, agents), func(b *testing.B) {
				w := MustWorld(Config{Graph: tp.make(), NumAgents: agents, Seed: 1})
				w.Step() // allocate the lazy batched-RNG scratch before timing
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.Step()
				}
			})
		}
	}
}

func BenchmarkWorldCount(b *testing.B) {
	const agents = 100000
	for _, tp := range benchTopos() {
		b.Run(fmt.Sprintf("%s/%d", tp.name, agents), func(b *testing.B) {
			w := MustWorld(Config{Graph: tp.make(), NumAgents: agents, Seed: 1})
			w.Step()
			sink := w.Count(0) // build the occupancy index
			w.Step()           // warm the incremental path's lazy scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
				for a := 0; a < agents; a++ {
					sink += w.Count(a)
				}
			}
			_ = sink
		})
	}
}

// BenchmarkAdjStep pins the CSR offsets/neighbors kernel's win on a
// social-network graph: one op is a movement round of 100k random
// walkers on a 100k-node Barabasi-Albert graph. "bulk" is the
// production path (the uniform random walk's batched dispatch through
// (*Adj).RandomSteps); "scalar" forces the per-agent interface path (virtual
// Degree/Neighbor through topology.RandomStep) the kernel replaced,
// by clearing the uniform-policy invariant. The two are bit-identical
// — see TestFastPathBitIdentical and netsize's scalar-reference test.
func BenchmarkAdjStep(b *testing.B) {
	g, err := socialnet.BarabasiAlbert(100000, 3, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	const agents = 100000
	for _, variant := range []string{"bulk", "scalar"} {
		b.Run(fmt.Sprintf("ba-100000/%d/%s", agents, variant), func(b *testing.B) {
			w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 1})
			if variant == "scalar" {
				for i := 0; i < agents; i++ {
					w.SetPolicy(i, RandomWalk{})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
}
