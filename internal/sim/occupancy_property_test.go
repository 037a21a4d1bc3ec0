package sim

import (
	"fmt"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// TestOccupancyAblationProperty cross-checks the hash-based occupancy
// index against the sort-based ablation on randomized worlds: for
// every topology family, random agent counts, tag sets, and group
// assignments, all count variants must agree exactly — with each
// other and with the per-agent query path. Every family runs flat and
// split into 3 shards, so tagged agents also cross slab boundaries.
// Half the cases tag their agents only once the index is live, where
// the first tagged agent gives the world its tag counts, and every
// round flips one agent's tag on the live index.
func TestOccupancyAblationProperty(t *testing.T) {
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
	}
	for _, tp := range topologies {
		for _, shards := range []int{1, 3} {
			name := tp.name
			if shards > 1 {
				name = fmt.Sprintf("%s-%dshards", tp.name, shards)
			}
			t.Run(name, func(t *testing.T) {
				g := tp.make()
				s := rng.New(uint64(len(tp.name)) * 1000003)
				const cases = 25
				for c := 0; c < cases; c++ {
					agents := 1 + s.Intn(3*int(g.NumNodes()))
					w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: s.Uint64(), Shards: shards})
					if w.Shards() != shards {
						t.Fatalf("%s case %d: world has %d shards, want %d", name, c, w.Shards(), shards)
					}
					// Random tag set and random assignment over groups
					// {0 (none), 1, 2}.
					live := c%2 == 1
					tags := make([]bool, agents)
					for i := 0; i < agents; i++ {
						tags[i] = s.Bernoulli(0.3)
						if tags[i] && !live {
							w.SetTagged(i, true)
						}
						w.SetGroup(i, s.Intn(3))
					}
					if live {
						w.Count(0) // build the index with no tagged agent
						for i, tag := range tags {
							if tag {
								w.SetTagged(i, true)
							}
						}
					}
					for r := 0; r < 4; r++ {
						if r > 0 {
							i := (7*c + r) % agents
							w.SetTagged(i, !w.Tagged(i))
						}
						w.Step()
						checkOccupancyAgreement(t, w, fmt.Sprintf("%s case %d round %d", name, c, r))
						if t.Failed() {
							return
						}
					}
					// Regression: clearing the last member of every group
					// must not leave stale per-group occupancy behind.
					for i := 0; i < agents; i++ {
						w.SetGroup(i, 0)
					}
					for _, grp := range []int{1, 2} {
						for i, n := range w.CountsInGroupAll(grp) {
							if n != 0 {
								t.Fatalf("%s case %d: agent %d sees %d members of cleared group %d", name, c, i, n, grp)
							}
						}
					}
					checkOccupancyAgreement(t, w, fmt.Sprintf("%s case %d cleared-groups", name, c))
					if t.Failed() {
						return
					}
				}
			})
		}
	}
}

// checkOccupancyAgreement asserts every counting path agrees on w's
// current configuration.
func checkOccupancyAgreement(t *testing.T, w *World, ctx string) {
	t.Helper()
	hash := w.CountsAll()
	sorted := w.CountsAllSorted()
	hashTag := w.CountsTaggedAll()
	sortedTag := w.CountsTaggedAllSorted()
	groups := []int{1, 2}
	hashGroup := make(map[int][]int, len(groups))
	sortedGroup := make(map[int][]int, len(groups))
	for _, grp := range groups {
		hashGroup[grp] = w.CountsInGroupAll(grp)
		sortedGroup[grp] = w.CountsInGroupAllSorted(grp)
	}
	for i := 0; i < w.NumAgents(); i++ {
		if hash[i] != sorted[i] {
			t.Errorf("%s agent %d: CountsAll %d != CountsAllSorted %d", ctx, i, hash[i], sorted[i])
			return
		}
		if hash[i] != w.Count(i) {
			t.Errorf("%s agent %d: CountsAll %d != Count %d", ctx, i, hash[i], w.Count(i))
			return
		}
		if hashTag[i] != sortedTag[i] {
			t.Errorf("%s agent %d: CountsTaggedAll %d != CountsTaggedAllSorted %d", ctx, i, hashTag[i], sortedTag[i])
			return
		}
		if hashTag[i] != w.CountTagged(i) {
			t.Errorf("%s agent %d: CountsTaggedAll %d != CountTagged %d", ctx, i, hashTag[i], w.CountTagged(i))
			return
		}
		for _, grp := range groups {
			if hashGroup[grp][i] != sortedGroup[grp][i] {
				t.Errorf("%s agent %d group %d: hash %d != sorted %d", ctx, i, grp, hashGroup[grp][i], sortedGroup[grp][i])
				return
			}
			if hashGroup[grp][i] != w.CountInGroup(i, grp) {
				t.Errorf("%s agent %d group %d: CountsInGroupAll %d != CountInGroup %d", ctx, i, grp, hashGroup[grp][i], w.CountInGroup(i, grp))
				return
			}
		}
	}
}
