//go:build !race

package sim

import (
	"runtime"
	"testing"

	"antdensity/internal/rng"
	"antdensity/internal/topology"
)

// allocatedBytes returns the bytes f allocates. It collects first, so
// that f's allocations do not cross the heap goal and start a GC
// cycle. The counter is process-wide, so the runtime's own background
// allocations (a few KiB at most) can land in it; callers allow for
// them.
func allocatedBytes(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDenseOccupancyBytes pins the dense index's memory: 4 bytes of
// totals per node, tag counts only once the world holds a tagged
// agent — allocated once, for every index of the world, by SetTagged
// — and nothing allocated by a warm tagged round. It reads the
// runtime's byte counter, which the race runtime inflates, so the file
// builds without -race only. The first-SetTagged checks divide by a
// few worlds, as testing.AllocsPerRun divides by its runs, and allow
// an eighth over the expected bytes: a second array would double them.
func TestDenseOccupancyBytes(t *testing.T) {
	const side = 512
	const nodes = side * side
	const worlds = 4
	flat := make([]*World, worlds)
	for k := range flat {
		flat[k] = MustWorld(Config{Graph: topology.MustTorus(2, side), NumAgents: 1000, Seed: uint64(5 + k)})
	}
	bytes := allocatedBytes(func() { flat[0].Count(0) })
	if want := uint64(4 * nodes); bytes < want || bytes >= want+want/8 {
		t.Errorf("first Count on an untagged %d² world allocated %d B, want the %d B totals array alone", side, bytes, want)
	}
	if flat[0].occ.tags != nil {
		t.Error("a world that never held a tagged agent has tag counts")
	}
	for _, w := range flat[1:] {
		w.Count(0)
	}
	bytes = allocatedBytes(func() {
		for _, w := range flat {
			w.SetTagged(3, true)
		}
	})
	if want := uint64(4 * nodes); bytes/worlds < want || bytes/worlds >= want+want/8 {
		t.Errorf("first SetTagged on a live %d² index allocated %d B per world, want one %d B tag array", side, bytes/worlds, want)
	}
	w := flat[0]
	requireZeroAllocs(t, "SetTagged on a world with tag counts", func() { w.SetTagged(5, !w.Tagged(5)) })

	// A sharded world gets every slab's tag counts at once, with its
	// first tagged agent, and its warm tagged rounds allocate nothing.
	g := topology.MustTorus(2, 64)
	sharded := make([]*World, worlds)
	buf := make([]int, 4096)
	for k := range sharded {
		sharded[k] = MustWorld(Config{Graph: g, NumAgents: len(buf), Seed: uint64(12 + k), Shards: 4})
		defer sharded[k].Close()
		sharded[k].CountsAllInto(buf)
		for s := range sharded[k].sh.slabs {
			if sharded[k].sh.slabs[s].tags != nil {
				t.Fatalf("slab %d of an untagged world has tag counts", s)
			}
		}
	}
	bytes = allocatedBytes(func() {
		for _, w := range sharded {
			w.SetTagged(0, true)
		}
	})
	if want := uint64(4 * g.NumNodes()); bytes/worlds < want || bytes/worlds >= want+want/8 {
		t.Errorf("first SetTagged on a live 4-shard index allocated %d B per world, want %d B of tag counts", bytes/worlds, want)
	}
	ws := sharded[0]
	for s := range ws.sh.slabs {
		if sl := &ws.sh.slabs[s]; int64(len(sl.tags)) != sl.hi-sl.lo {
			t.Errorf("slab %d has %d tag counts for span %d", s, len(sl.tags), sl.hi-sl.lo)
		}
	}
	for i := 1; i < ws.NumAgents(); i += 3 {
		ws.SetTagged(i, true)
	}
	padShardCapacities(ws)
	for r := 0; r < 4; r++ { // settle migration buffers after padding
		ws.Step()
		ws.CountsAllInto(buf)
	}
	requireZeroAllocs(t, "Step+CountsAllInto (tagged, 4 shards)", func() {
		ws.Step()
		ws.CountsAllInto(buf)
	})
}

// TestRegularCSRFirstStepZeroAllocs pins that a regular CSR world
// steps through (*Adj).RandomSteps with no draws scratch: the flat
// world's first Step allocates nothing where it allocated 8 B per
// agent, and no slab of a 2-shard world, whose first Step also sizes
// its migration buffers, holds draws. The byte bound allows for the
// runtime's background allocations.
func TestRegularCSRFirstStepZeroAllocs(t *testing.T) {
	g, err := topology.NewRandomRegular(5000, 8, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const agents = 20000
	w := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 7})
	if bytes := allocatedBytes(w.Step); bytes >= agents {
		t.Errorf("first Step of a flat %d-agent world on an 8-regular CSR graph allocated %d B, want none", agents, bytes)
	}
	if w.draws != nil {
		t.Error("the flat world holds draws scratch")
	}
	ws := MustWorld(Config{Graph: g, NumAgents: agents, Seed: 7, Shards: 2})
	defer ws.Close()
	ws.Step()
	for s := range ws.sh.slabs {
		if ws.sh.slabs[s].draws != nil {
			t.Errorf("slab %d of the 2-shard world holds draws scratch", s)
		}
	}
}
