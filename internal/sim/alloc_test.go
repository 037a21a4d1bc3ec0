package sim

import (
	"runtime"
	"testing"

	"antdensity/internal/topology"
)

// Allocation regression tests pinning the hot path at zero
// steady-state allocations: once the occupancy index is live and a
// sharded world's worker pool is warm, Step and the count queries must
// not allocate. A regression here means a per-round map rebuild,
// goroutine churn, or stream boxing crept back in.

func requireZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(50, f); avg != 0 {
		t.Errorf("%s allocates %.1f times per round in steady state, want 0", name, avg)
	}
}

// requireZeroAllocsAtProcs is requireZeroAllocs at the caller's
// GOMAXPROCS. testing.AllocsPerRun sets GOMAXPROCS to 1 while it
// measures, and Step reads GOMAXPROCS to pick a sharded world's
// workers, so under AllocsPerRun Step never reaches the pool. The
// count is AllocsPerRun's: one warm-up call, then the mallocs of 50
// calls integer-divided by 50.
func requireZeroAllocsAtProcs(t *testing.T, name string, f func()) {
	t.Helper()
	const runs = 50
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	if avg := (after.Mallocs - before.Mallocs) / runs; avg != 0 {
		t.Errorf("%s allocates %d times per round in steady state at GOMAXPROCS %d, want 0",
			name, avg, runtime.GOMAXPROCS(0))
	}
}

func TestStepAndCountZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := topology.MustTorus(2, 64)
	w := MustWorld(Config{Graph: g, NumAgents: 4096, Seed: 1})
	w.SetTagged(0, true)
	w.Count(0) // build the index once; stepping maintains it from here
	requireZeroAllocs(t, "Step+Count (dense, bulk)", func() {
		w.Step()
		_ = w.Count(17)
		_ = w.CountTagged(17)
	})

	// The scalar per-agent path must be allocation-free too.
	scalar := MustWorld(Config{Graph: g, NumAgents: 1024, Seed: 2})
	for i := 0; i < scalar.NumAgents(); i++ {
		scalar.SetPolicy(i, RandomWalk{})
	}
	scalar.Count(0)
	requireZeroAllocs(t, "Step+Count (scalar path)", func() {
		scalar.Step()
		_ = scalar.Count(3)
	})
}

// TestBatchedPoliciesZeroAllocs pins the batched stepping paths (bulk
// draw/float fills into the SoA scratch buffers) for every policy with
// a batched kernel, the per-node-bound random walk on an irregular CSR
// graph, and a large dense world whose incremental index updates span
// a multi-megabyte cell array.
func TestBatchedPoliciesZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	biased, err := NewBiased([]float64{2, 1, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []struct {
		name   string
		policy Policy
	}{
		{"randomwalk", RandomWalk{}},
		{"lazy", Lazy{StayProb: 0.35}},
		{"biased", biased},
	} {
		w := MustWorld(Config{Graph: topology.MustTorus(2, 64), NumAgents: 4096, Seed: 8, Policy: pl.policy})
		w.Count(0)
		requireZeroAllocs(t, "Step batched/"+pl.name, func() {
			w.Step()
			_ = w.Count(5)
		})
	}

	// The random walk on an irregular CSR graph (netsize's step): no
	// fixed draw bound, so each agent's draw is bounded by its own
	// node's degree. A 1024-cycle with chords at every fourth node
	// gives degrees 2 and 3.
	const n = 1024
	edges := make([]topology.Edge, 0, n+n/4)
	for v := int64(0); v < n; v++ {
		edges = append(edges, topology.Edge{U: v, V: (v + 1) % n})
	}
	for v := int64(0); v < n; v += 4 {
		edges = append(edges, topology.Edge{U: v, V: (v + n/2) % n})
	}
	adj := MustWorld(Config{Graph: topology.MustAdj(n, edges), NumAgents: 4096, Seed: 10})
	adj.Count(0)
	requireZeroAllocs(t, "Step batched/randomwalk (irregular CSR)", func() {
		adj.Step()
		_ = adj.Count(5)
	})

	// torus2d-1024 has 1<<20 cells (8 MiB of dense index, far over
	// cache) and stays on the dense index.
	big := MustWorld(Config{Graph: topology.MustTorus(2, 1024), NumAgents: 8192, Seed: 9})
	big.SetTagged(1, true)
	big.Count(0)
	requireZeroAllocs(t, "Step (large dense applyMoves)", func() {
		big.Step()
		_ = big.Count(7)
	})
}

// TestStepParallelZeroAllocs pins Step on an unsharded world at
// GOMAXPROCS 4 at zero allocations: it steps serially and spawns no
// worker pool.
func TestStepParallelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := topology.MustTorus(2, 64)
	w := MustWorld(Config{Graph: g, NumAgents: 4096, Seed: 3})
	w.Count(0)
	requireZeroAllocsAtProcs(t, "Step (unsharded, GOMAXPROCS 4)", func() {
		w.Step()
	})
	if w.pool != nil {
		t.Error("Step on an unsharded world built a worker pool")
	}
}

func TestCountsIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// The bulk snapshot path must be allocation-free on both index
	// representations once the caller supplies the buffer.
	for _, occ := range []OccupancyIndex{OccDense, OccSparse} {
		w := MustWorld(Config{Graph: topology.MustTorus(2, 64), NumAgents: 2048, Seed: 5, Occupancy: occ})
		w.SetTagged(0, true)
		w.SetGroup(1, 3)
		buf := make([]int, w.NumAgents())
		w.Count(0)
		requireZeroAllocs(t, "CountsAllInto", func() { w.CountsAllInto(buf) })
		requireZeroAllocs(t, "CountsTaggedAllInto", func() { w.CountsTaggedAllInto(buf) })
		requireZeroAllocs(t, "CountsInGroupInto", func() { w.CountsInGroupInto(3, buf) })
	}
}

// pipelineProbe reads every snapshot flavor each round, exercising the
// Round's buffer reuse.
type pipelineProbe struct{ sink int }

func (p *pipelineProbe) Observe(r *Round) Signal {
	p.sink += r.Counts()[0] + r.TaggedCounts()[1] + r.GroupCounts(3)[2]
	if r.Active(0) {
		p.sink++
	}
	return Continue
}

func TestRunnerStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// A full pipeline round — world step, incremental occupancy update,
	// and all three snapshot flavors handed to an observer — must not
	// allocate in steady state.
	w := MustWorld(Config{Graph: topology.MustTorus(2, 64), NumAgents: 4096, Seed: 6})
	w.SetTagged(0, true)
	w.SetGroup(2, 3)
	probe := &pipelineProbe{}
	rn := NewRunner(w, probe)
	rn.Step() // warm the lazily created snapshot buffers and the index
	requireZeroAllocs(t, "Runner.Step (full pipeline round)", func() { rn.Step() })
}

// growCap pads a slice's capacity to at least n without changing its
// contents or length, so steady-state appends cannot regrow it.
func growCap[T any](s []T, n int) []T {
	l := len(s)
	var zero T
	for cap(s) < n {
		s = append(s, zero)
	}
	return s[:l]
}

// padShardCapacities grows every migration-sensitive buffer of a
// sharded world to its theoretical bound (the total agent count), so
// the allocation pins below measure the steady-state kernels rather
// than capacity high-water luck: slab populations and per-(src,dst)
// migrant counts are bounded by NumAgents, so after padding no append
// or scratch regrow can ever allocate again.
func padShardCapacities(w *World) {
	sh := w.sh
	n := len(w.pos) + 1
	k := len(sh.slabs)
	for s := range sh.slabs {
		sl := &sh.slabs[s]
		sl.pos = growCap(sl.pos, n)
		sl.streams = growCap(sl.streams, n)
		sl.ids = growCap(sl.ids, n)
		sl.prev = growCap(sl.prev, n)
		sl.emig = growCap(sl.emig, n)
		sl.draws = make([]uint64, n)
		sl.floats = make([]float64, n)
	}
	for src := 0; src < k; src++ {
		for dst := 0; dst < k; dst++ {
			for j := 0; j < n; j++ {
				sh.boxes.Put(src, dst, migrant{})
			}
		}
	}
	for dst := 0; dst < k; dst++ {
		sh.boxes.ClearDst(dst)
	}
}

// TestShardedStepZeroAllocs pins the sharded round — both phases,
// including cross-shard migration and incremental slab occupancy — at
// zero steady-state allocations, serial and through Step's pool at
// GOMAXPROCS 4, plus the sharded bulk count reduction.
func TestShardedStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := topology.MustTorus(2, 64)
	w := MustWorld(Config{Graph: g, NumAgents: 4096, Seed: 12, Shards: 4})
	defer w.Close()
	w.SetTagged(0, true)
	w.Count(0) // live index: phases maintain slabs incrementally
	w.Step()   // create and warm the 4-worker pool
	buf := make([]int, w.NumAgents())
	w.CountsAllInto(buf)
	padShardCapacities(w)
	for r := 0; r < 4; r++ { // settle prev/scratch views after padding
		w.stepSharded(1)
		w.Step()
	}
	requireZeroAllocs(t, "stepSharded(1)+Count (sharded serial)", func() {
		w.stepSharded(1)
		_ = w.Count(9)
		_ = w.CountTagged(9)
	})
	// Closing the pool makes the pin's warm-up Step build it again, so
	// the check after the pin shows that Step at this GOMAXPROCS is
	// what ran the pool.
	w.Close()
	requireZeroAllocsAtProcs(t, "Step (sharded, GOMAXPROCS 4, 4 pooled workers)", func() {
		w.Step()
	})
	if w.pool == nil || w.pool.workers() != 4 {
		t.Error("Step on a 4-shard world at GOMAXPROCS 4 did not run a 4-worker pool")
	}
	requireZeroAllocs(t, "CountsAllInto (sharded)", func() { w.CountsAllInto(buf) })
	requireZeroAllocs(t, "CountsTaggedAllInto (sharded)", func() { w.CountsTaggedAllInto(buf) })
	// Grouping an agent only now keeps the stepping pins above free of
	// the per-group maps' first-insert growth.
	w.SetGroup(1, 3)
	requireZeroAllocs(t, "CountsInGroupInto (sharded)", func() { w.CountsInGroupInto(3, buf) })

	// Sparse slabs: as with the flat sparse index, stepping may rarely
	// touch table internals (resize hysteresis), so only the query side
	// is pinned.
	ws := MustWorld(Config{Graph: g, NumAgents: 2048, Seed: 13, Shards: 4, Occupancy: OccSparse})
	ws.SetTagged(0, true)
	ws.SetGroup(1, 3)
	wsBuf := make([]int, ws.NumAgents())
	ws.Count(0)
	ws.CountsAllInto(wsBuf)
	requireZeroAllocs(t, "CountsAllInto (sharded sparse)", func() { ws.CountsAllInto(wsBuf) })
	requireZeroAllocs(t, "CountsTaggedAllInto (sharded sparse)", func() { ws.CountsTaggedAllInto(wsBuf) })
	requireZeroAllocs(t, "CountsInGroupInto (sharded sparse)", func() { ws.CountsInGroupInto(3, wsBuf) })
	requireZeroAllocs(t, "Count (sharded sparse)", func() { _ = ws.Count(11) })
}

func TestCountZeroAllocsSparse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// Queries on the sparse index are allocation-free as well (the
	// steady-state stepping path may rarely touch map internals, so
	// only the query side is pinned for sparse).
	g := topology.MustTorus(2, 3000)
	w := MustWorld(Config{Graph: g, NumAgents: 512, Seed: 4})
	w.Count(0)
	requireZeroAllocs(t, "Count (sparse)", func() {
		_ = w.Count(11)
		_ = w.CountTagged(11)
	})
}
