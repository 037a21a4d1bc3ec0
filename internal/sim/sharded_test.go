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
			w.stepSharded(3)
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

// TestShardedPerAgentPoliciesAllocateNoScratch pins that a sharded
// world whose every agent has a SetPolicy override, and which therefore
// steps only through the scalar loop, sizes no batched-RNG scratch in
// any slab — as the flat world sizes none in ensureScratch.
func TestShardedPerAgentPoliciesAllocateNoScratch(t *testing.T) {
	w := MustWorld(Config{Graph: topology.MustTorus(2, 64), NumAgents: 4096, Seed: 14, Shards: 4})
	for i := 0; i < w.NumAgents(); i++ {
		w.SetPolicy(i, RandomWalk{})
	}
	for r := 0; r < 3; r++ {
		w.Step()
	}
	for s := range w.sh.slabs {
		sl := &w.sh.slabs[s]
		if sl.draws != nil || sl.floats != nil {
			t.Errorf("shard %d holds %d draws and %d floats that the scalar loop never reads", s, len(sl.draws), len(sl.floats))
		}
	}
}

// TestShardedOccupancySelection pins the world rule: the occupancy
// representation follows the world's node and agent counts only, so
// every explicit shard count of a shape resolves the flat world's
// choice, and every slab's storage after the first count is that
// representation. The 1<<20-agent world is resolved but never counted
// (its dense index is 128 MiB).
func TestShardedOccupancySelection(t *testing.T) {
	shapes := []struct {
		name   string
		side   int64
		agents int
		want   OccupancyIndex
		count  bool
	}{
		{"64²/10", 64, 10, OccDense, true},
		{"2100²/100", 2100, 100, OccSparse, true},
		{"4096²/100", 4096, 100, OccSparse, true},
		{"4096²/2^20", 4096, 1 << 20, OccDense, false},
	}
	for _, sp := range shapes {
		g := topology.MustTorus(2, sp.side)
		for _, k := range []int{1, 2, 4, 7} {
			w := MustWorld(Config{Graph: g, NumAgents: sp.agents, Seed: 1, Shards: k})
			if w.Shards() != k {
				t.Fatalf("%s: world has %d shards, want %d", sp.name, w.Shards(), k)
			}
			if w.occMode != sp.want {
				t.Errorf("%s with %d shards resolved occupancy %d, want %d", sp.name, k, w.occMode, sp.want)
			}
			if !sp.count {
				continue
			}
			w.Count(0)
			indexes := []*occIndex{&w.occ}
			if w.sh != nil {
				indexes = indexes[:0]
				for s := range w.sh.slabs {
					indexes = append(indexes, &w.sh.slabs[s].occIndex)
				}
			}
			for s, x := range indexes {
				if dense := x.totals != nil; dense != (sp.want == OccDense) || dense == (x.sparse != nil) {
					t.Errorf("%s with %d shards: index %d holds dense=%v sparse=%v, want %d", sp.name, k, s, dense, x.sparse != nil, sp.want)
				}
				if x.totals != nil && int64(len(x.totals)) != x.hi-x.lo {
					t.Errorf("%s with %d shards: index %d has %d dense totals for span %d", sp.name, k, s, len(x.totals), x.hi-x.lo)
				}
			}
		}
	}
	// The force limit bounds the world, not a slab: 10^8 nodes is too
	// big for a dense index at every shard count.
	big := topology.MustTorus(2, 10000)
	for _, k := range []int{1, 2, 4, 7} {
		if _, err := NewWorld(Config{Graph: big, NumAgents: 10, Seed: 1, Occupancy: OccDense, Shards: k}); err == nil {
			t.Errorf("OccDense on 10^8 nodes with %d shards should error", k)
		}
	}
}

// TestShardedSparseFirstCountBytes pins the memory side of the world
// rule: a 100-agent world on the 16.8M-node torus split into 4 shards
// builds 4 small sparse slabs at its first count, not 128 MiB of dense
// slabs.
func TestShardedSparseFirstCountBytes(t *testing.T) {
	w := MustWorld(Config{Graph: topology.MustTorus(2, 4096), NumAgents: 100, Seed: 1, Shards: 4})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.Count(0)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("first Count allocated %d B, want under 1 MiB", got)
	}
}

// TestShardAutoAndDefault pins ShardAuto resolution: small worlds stay
// flat, an explicit Config.Shards is honored, and counts outside
// [0, MaxShards] error.
func TestShardAutoAndDefault(t *testing.T) {
	g := topology.MustTorus(2, 32)
	auto := MustWorld(Config{Graph: g, NumAgents: 500, Seed: 1})
	if auto.Shards() != 1 {
		t.Errorf("small auto world sharded into %d", auto.Shards())
	}
	explicit := MustWorld(Config{Graph: g, NumAgents: 500, Seed: 1, Shards: 2})
	if explicit.Shards() != 2 {
		t.Errorf("explicit Shards: 2 world has %d shards", explicit.Shards())
	}
	one := MustWorld(Config{Graph: g, NumAgents: 500, Seed: 1, Shards: 1})
	if one.Shards() != 1 || one.sh != nil {
		t.Error("Shards: 1 must force the flat path")
	}
	if _, err := NewWorld(Config{Graph: g, NumAgents: 5, Seed: 1, Shards: -1}); err == nil {
		t.Error("negative Shards should error")
	}
	if _, err := NewWorld(Config{Graph: g, NumAgents: 5, Seed: 1, Shards: MaxShards + 1}); err == nil {
		t.Errorf("Shards %d above MaxShards should error", MaxShards+1)
	}
}

// TestShardedRunner pins the pipeline integration: a Runner on a
// sharded world steps it through Step, which runs one worker per shard
// up to GOMAXPROCS, with results bit-identical to a flat serial twin.
func TestShardedRunner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	g := topology.MustTorus(2, 12)
	const agents = 200
	flat := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 9, Shards: 1})
	shw := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 9, Shards: 4})
	defer shw.Close()
	rn := NewRunner(shw)
	for r := 0; r < 10; r++ {
		flat.Step()
		rn.Step()
		compareWorlds(t, flat, shw, fmt.Sprintf("runner round %d", r))
		if t.Failed() {
			return
		}
	}
	if shw.pool == nil || shw.pool.workers() != 3 {
		t.Error("Runner on a 4-shard world at GOMAXPROCS 3 did not step on a 3-worker pool")
	}
	if flat.pool != nil {
		t.Error("the flat world built a worker pool")
	}
}
