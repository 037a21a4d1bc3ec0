package sim

import (
	"fmt"
	"runtime"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// TestShardedOwnershipInvariant pins the structural invariant the
// whole sharded mode indexes by: after any number of rounds, every
// slab holds exactly the agents whose position lies in its range, the
// slab slot arrays stay parallel, the ids partition the agent set, and
// the flat position mirror agrees with slab-local positions.
func TestShardedOwnershipInvariant(t *testing.T) {
	g := topology.MustTorus(2, 16)
	const agents = 300
	w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 41, Shards: 5})
	if w.Shards() != 5 {
		t.Fatalf("Shards() = %d, want 5", w.Shards())
	}
	w.Count(0) // live index, so migration also maintains occupancy
	for r := 0; r < 12; r++ {
		if r%3 == 2 {
			w.StepParallel(3)
		} else {
			w.Step()
		}
		seen := make(map[int32]bool, agents)
		for s := range w.sh.slabs {
			sl := &w.sh.slabs[s]
			if len(sl.streams) != len(sl.pos) || len(sl.ids) != len(sl.pos) {
				t.Fatalf("round %d shard %d: slot arrays diverged (%d pos, %d streams, %d ids)",
					r, s, len(sl.pos), len(sl.streams), len(sl.ids))
			}
			for k, p := range sl.pos {
				id := sl.ids[k]
				if p < sl.lo || p >= sl.hi {
					t.Fatalf("round %d shard %d slot %d: position %d outside [%d,%d)", r, s, k, p, sl.lo, sl.hi)
				}
				if w.pos[id] != p {
					t.Fatalf("round %d shard %d agent %d: mirror %d != slab %d", r, s, id, w.pos[id], p)
				}
				if seen[id] {
					t.Fatalf("round %d: agent %d owned by two shards", r, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != agents {
			t.Fatalf("round %d: %d agents owned, want %d", r, len(seen), agents)
		}
	}
	w.Close()
}

// TestShardedLiveIndexPatching is TestLiveIndexPatching on sharded
// worlds: SetTagged/SetGroup toggles against a *live* shard-local
// occupancy index must agree with brute force, for dense and sparse
// slabs.
func TestShardedLiveIndexPatching(t *testing.T) {
	for _, mode := range []OccupancyIndex{OccDense, OccSparse} {
		name := map[OccupancyIndex]string{OccDense: "dense", OccSparse: "sparse"}[mode]
		t.Run(name, func(t *testing.T) {
			g := topology.MustTorus(2, 5)
			const agents = 60
			w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 21, Occupancy: mode, Shards: 3})
			if w.Shards() < 2 {
				t.Fatal("world did not shard")
			}
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

// TestShardedOccupancySelection pins the sharded OccAuto rule: budgets
// apply to the widest shard span, not the whole graph, so a graph that
// is sparse flat becomes dense under enough shards — the dense-slab
// win the decomposition is partly for.
func TestShardedOccupancySelection(t *testing.T) {
	g := topology.MustTorus(2, 2100) // 4.41M nodes: sparse flat (> 1<<22)
	flat := MustWorld(Config{Graph: g, NumAgents: 100, Seed: 1})
	if flat.occ.mode != OccSparse {
		t.Error("flat 4.41M-node torus should be sparse under OccAuto")
	}
	sh := MustWorld(Config{Graph: g, NumAgents: 100, Seed: 1, Shards: 4})
	if sh.occ.mode != OccDense {
		t.Error("4-sharded 4.41M-node torus should be dense under OccAuto (1.1M-node spans)")
	}
	sh.Count(0)
	for s := range sh.sh.slabs {
		sl := &sh.sh.slabs[s]
		if sl.dense == nil {
			t.Fatalf("shard %d: no dense slab after first count", s)
		}
		if int64(len(sl.dense)) != sl.hi-sl.lo {
			t.Fatalf("shard %d: dense slab %d cells for span %d", s, len(sl.dense), sl.hi-sl.lo)
		}
	}
	// The force limit also applies per shard: a 100M-node torus is too
	// big for a flat dense index but fine across 4 shards.
	big := topology.MustTorus(2, 10000)
	if _, err := NewWorld(Config{Graph: big, NumAgents: 10, Seed: 1, Occupancy: OccDense}); err == nil {
		t.Error("flat OccDense beyond the force limit should error")
	}
	if _, err := NewWorld(Config{Graph: big, NumAgents: 10, Seed: 1, Occupancy: OccDense, Shards: 4}); err != nil {
		t.Errorf("4-sharded OccDense within the per-shard force limit should work: %v", err)
	}
}

// TestShardAutoAndDefault pins ShardAuto resolution: small worlds stay
// flat, SetDefaultShards overrides the heuristic, and explicit
// Config.Shards beats the default.
func TestShardAutoAndDefault(t *testing.T) {
	g := topology.MustTorus(2, 32)
	auto := MustWorld(Config{Graph: g, NumAgents: 500, Seed: 1})
	if auto.Shards() != 1 {
		t.Errorf("small auto world sharded into %d", auto.Shards())
	}
	SetDefaultShards(3)
	defer SetDefaultShards(0)
	def := MustWorld(Config{Graph: g, NumAgents: 500, Seed: 1})
	if def.Shards() != 3 {
		t.Errorf("SetDefaultShards(3) world has %d shards", def.Shards())
	}
	explicit := MustWorld(Config{Graph: g, NumAgents: 500, Seed: 1, Shards: 2})
	if explicit.Shards() != 2 {
		t.Errorf("explicit Shards: 2 world has %d shards", explicit.Shards())
	}
	one := MustWorld(Config{Graph: g, NumAgents: 500, Seed: 1, Shards: 1})
	if one.Shards() != 1 || one.sh != nil {
		t.Error("Shards: 1 must force the flat path over the default")
	}
	if _, err := NewWorld(Config{Graph: g, NumAgents: 5, Seed: 1, Shards: -1}); err == nil {
		t.Error("negative Shards should error")
	}
}

// TestShardedRunner pins the pipeline integration: a Runner on a
// sharded world steps it in parallel (one worker per shard, up to
// GOMAXPROCS) with results bit-identical to a flat serial twin, and
// sharded runs through Run/observers behave like unsharded ones.
func TestShardedRunner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	g := topology.MustTorus(2, 12)
	const agents = 200
	flat := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 9, Shards: 1})
	shw := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 9, Shards: 4})
	defer shw.Close()
	rn := NewRunner(shw)
	if rn.workers != 3 {
		t.Fatalf("Runner on a 4-shard world at GOMAXPROCS 3 uses %d workers, want 3", rn.workers)
	}
	for r := 0; r < 10; r++ {
		flat.Step()
		rn.Step()
		compareWorlds(t, flat, shw, fmt.Sprintf("runner round %d", r))
		if t.Failed() {
			return
		}
	}
	if shw.pool == nil {
		t.Error("Runner on a sharded world never engaged the parallel pool")
	}
}
