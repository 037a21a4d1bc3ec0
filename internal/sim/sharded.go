package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"antdensity/internal/rng"
	"antdensity/internal/shard"
)

// This file is the sharded execution mode: spatial domain
// decomposition of the world into K shards (contiguous node ranges,
// row-band-aligned on tori — see internal/shard), each owning the SoA
// hot state, occupancy index slab, and rng streams of the agents
// currently inside its range. A sharded round has two phases with a
// barrier between them:
//
//  1. Shard-local stepping: each shard advances its own agents with
//     the same batched/scalar kernels as the flat world, then
//     classifies results — agents still inside the shard's range
//     update the shard's occupancy slab in place; agents that left
//     are posted to the per-(src, dst) migration mailboxes.
//  2. Migration merge: each shard evicts its emigrants (descending
//     slot order, so swap-removal never disturbs an unprocessed slot)
//     and appends its immigrants in fixed (src, mailbox-insertion)
//     order, updating its occupancy slab.
//
// Both phases touch only state owned by the shard being processed (a
// shard's slab, its outgoing mailboxes in phase 1, its incoming ones
// in phase 2), so shards can be processed by any number of workers in
// any order. Agent ids, positions, and streams are preserved through
// migration, and each agent's draws still come only from its own
// stream, so the observable state — positions and counts by agent id
// — is bit-identical to the flat world and to any other shard count:
// the workers=1-vs-N invariant extends to shards=1-vs-K. Even the
// internal slab layouts are worker-count-invariant, because the merge
// order is fixed by (src, insertion index), not by scheduling.
//
// The flat w.pos array remains a mirror of every agent's position,
// rewritten during phase 1 (disjoint ids per shard, so the parallel
// writes are race-free); all id-indexed queries read it directly, and
// position-keyed queries route to the owning shard via the O(1)
// Partition.Find. The flat w.prev and w.streams are dead in sharded
// mode and released at construction.

// ShardAuto (the Config.Shards zero value) lets the world pick the
// shard count: SetDefaultShards' value if set, otherwise GOMAXPROCS
// (capped at shardMaxAuto) for worlds with at least shardAutoMinAgents
// agents, and 1 — no sharding — below that.
const ShardAuto = 0

// shardAutoMinAgents is the population below which ShardAuto keeps the
// flat path: the migration machinery only pays for itself once
// stepping dominates per-round costs.
const shardAutoMinAgents = 1 << 20

// shardMaxAuto caps the automatically chosen shard count; explicit
// Config.Shards may exceed it (bounded only by the graph's row count).
const shardMaxAuto = 64

// defaultShards is the process-wide ShardAuto override installed by
// SetDefaultShards (the CLI's -shards flag).
//
//antlint:globalok execution-layout default only; results are shard-invariant for every count (TestRunShardInvariance)
var defaultShards atomic.Int32

// SetDefaultShards installs a process-wide shard count that ShardAuto
// resolves to instead of its GOMAXPROCS heuristic. k <= 0 restores
// the heuristic. Worlds whose Config.Shards is explicit are
// unaffected. Results are shard-invariant, so flipping the default
// never changes any run's output — only its execution layout.
func SetDefaultShards(k int) {
	if k < 0 {
		k = 0
	}
	defaultShards.Store(int32(k))
}

// resolveShardCount maps cfg.Shards to an effective requested count,
// before partitioning clamps it to the graph's unit count.
func resolveShardCount(cfg Config) (int, error) {
	k := cfg.Shards
	if k < 0 {
		return 0, fmt.Errorf("sim: Config.Shards must be >= 0, got %d", k)
	}
	if k != ShardAuto {
		return k, nil
	}
	if d := int(defaultShards.Load()); d > 0 {
		return d, nil
	}
	if cfg.NumAgents < shardAutoMinAgents {
		return 1, nil
	}
	k = runtime.GOMAXPROCS(0)
	if k > shardMaxAuto {
		k = shardMaxAuto
	}
	return k, nil
}

// migrant is one agent crossing shards this round: everything the
// destination slab needs to adopt it. Tags and groups stay in the
// global id-indexed arrays and need not travel.
type migrant struct {
	pos    int64
	stream rng.Stream
	id     int32
}

// shardSlab is one shard's owned state: the SoA hot state of its
// current agents (indexed by slab slot, not agent id), the ids mapping
// slots back to agents, the shard's node range, and its occupancy
// slab. dense is indexed by (node - lo); sparse is a per-shard
// occTable. emig collects this round's emigrant slots (ascending)
// between phases.
type shardSlab struct {
	hotState
	ids    []int32
	lo, hi int64
	dense  []cell
	sparse *occTable
	group  map[groupKey]int32
	emig   []int32
	counts []int // scratch for sparse bulk count queries
}

// shardedState hangs off World when sharding is active.
type shardedState struct {
	part  *shard.Partition
	slabs []shardSlab
	boxes *shard.Mailbox[migrant]
	// track mirrors !w.occDirty for the current round's phases.
	track bool
	// needDraws/needFloats cache scratchNeeds for the uniform policy.
	needDraws, needFloats bool
	// countsDst/countsTagged parameterize an in-flight jobShardCounts.
	countsDst    []int
	countsTagged bool
}

// initShards distributes the freshly placed flat world into slabs and
// switches w into sharded mode. Called once from NewWorld, after
// placement; the flat prev and streams arrays are released (pos stays,
// as the id-indexed position mirror).
func (w *World) initShards(part *shard.Partition) {
	k := part.K()
	sh := &shardedState{
		part:  part,
		slabs: make([]shardSlab, k),
		boxes: shard.NewMailbox[migrant](k),
	}
	if w.uniform != nil {
		sh.needDraws, sh.needFloats = scratchNeeds(w.uniform, w.graph)
	}
	perShard := make([]int, k)
	for _, p := range w.pos {
		perShard[part.Find(p)]++
	}
	for s := range sh.slabs {
		sl := &sh.slabs[s]
		sl.lo, sl.hi = part.Bounds(s)
		// Initial population plus migration headroom, so steady-state
		// churn rarely regrows the slab.
		c := perShard[s] + perShard[s]/8 + 64
		sl.pos = make([]int64, 0, c)
		sl.streams = make([]rng.Stream, 0, c)
		sl.ids = make([]int32, 0, c)
	}
	for i, p := range w.pos {
		sl := &sh.slabs[part.Find(p)]
		sl.pos = append(sl.pos, p)
		sl.streams = append(sl.streams, w.streams[i])
		sl.ids = append(sl.ids, int32(i))
	}
	w.prev = nil
	w.streams = nil
	w.sh = sh
}

// Shards returns the world's effective shard count (1 when the flat
// path is active).
func (w *World) Shards() int {
	if w.sh == nil {
		return 1
	}
	return len(w.sh.slabs)
}

// autoStepWorkers returns the worker count a driver with no explicit
// preference should use: one shard per worker up to GOMAXPROCS for
// sharded worlds, serial otherwise. The pipeline Runner uses it so
// sharded worlds parallelize without every call site growing a knob.
func (w *World) autoStepWorkers() int {
	if w.sh == nil {
		return 1
	}
	k := len(w.sh.slabs)
	if g := runtime.GOMAXPROCS(0); g < k {
		k = g
	}
	return k
}

// stepSharded advances one synchronous round in sharded mode. The
// migration phase runs every round — even for worlds that never query
// counts — because slab ownership (agent in slab s iff its position is
// in s's range) is the structural invariant everything else indexes
// by.
//
//antlint:noalloc
func (w *World) stepSharded(workers int) {
	sh := w.sh
	sh.track = !w.occDirty
	k := len(sh.slabs)
	if workers > k {
		workers = k
	}
	if workers < 2 {
		for s := 0; s < k; s++ {
			w.shardPhase1(s)
		}
		for s := 0; s < k; s++ {
			w.shardPhase2(s)
		}
	} else {
		p := w.ensurePool(workers)
		p.run(w, jobShardPhase1, k)
		p.run(w, jobShardPhase2, k)
	}
	w.round++
}

// syncScratch sizes slab scratch to the current population. Slab
// populations drift with migration, so unlike the flat world's
// once-only ensureScratch this re-checks cheaply every round; buffers
// are regrown to the slab's capacity high-water mark, which stabilizes
// after warm-up.
func (sl *shardSlab) syncScratch(sh *shardedState) {
	n := len(sl.pos)
	if sh.needDraws && len(sl.draws) < n {
		sl.draws = make([]uint64, cap(sl.pos))
	}
	if sh.needFloats && len(sl.floats) < n {
		sl.floats = make([]float64, cap(sl.pos))
	}
}

// shardPhase1 steps shard s's agents and classifies the results:
// stayers update the slab occupancy in place, emigrants are posted to
// the (s, dst) mailboxes and their slots recorded for phase-2
// eviction. Touches only slab s, its outgoing mailboxes, and
// disjoint-id elements of the flat position mirror — safe to run
// concurrently with any other shard's phase 1.
//
//antlint:noalloc
func (w *World) shardPhase1(s int) {
	sh := w.sh
	sl := &sh.slabs[s]
	sl.emig = sl.emig[:0]
	n := len(sl.pos)
	if n == 0 {
		return
	}
	track := sh.track
	sl.syncScratch(sh)
	if track {
		if cap(sl.prev) < n {
			//antlint:allocok capacity high-water regrow; stabilizes after migration warm-up (see padShardCapacities)
			sl.prev = make([]int64, n, cap(sl.pos))
		} else {
			sl.prev = sl.prev[:n]
		}
		copy(sl.prev, sl.pos)
	}
	if p := w.uniform; p != nil {
		sl.stepUniform(w.graph, p)
	} else {
		for k := 0; k < n; k++ {
			sl.pos[k] = w.policies[sl.ids[k]].Step(w.graph, sl.pos[k], &sl.streams[k])
		}
	}
	anyGroups := len(w.numGroup) > 0
	for k := 0; k < n; k++ {
		p := sl.pos[k]
		id := sl.ids[k]
		w.pos[id] = p // id-indexed mirror; ids are disjoint across shards
		if p >= sl.lo && p < sl.hi {
			if track {
				if q := sl.prev[k]; p != q {
					tag := w.tagged[id]
					sl.decCell(q, tag)
					sl.incCell(p, tag)
					if anyGroups {
						if g := w.groups[id]; g != 0 {
							sl.groupDec(q, g)
							sl.groupInc(p, g)
						}
					}
				}
			}
			continue
		}
		sh.boxes.Put(s, sh.part.Find(p), migrant{pos: p, stream: sl.streams[k], id: id})
		sl.emig = append(sl.emig, int32(k))
		if track {
			q := sl.prev[k]
			tag := w.tagged[id]
			sl.decCell(q, tag)
			if anyGroups {
				if g := w.groups[id]; g != 0 {
					sl.groupDec(q, g)
				}
			}
		}
	}
}

// shardPhase2 completes shard s's round: evict this round's emigrants
// by swap-removal in descending slot order (so a swapped-in tail
// element is never an unprocessed emigrant), then adopt immigrants in
// fixed (src, mailbox-insertion) order. Touches only slab s and its
// incoming mailboxes — safe to run concurrently with any other
// shard's phase 2, and the fixed merge order makes the resulting slab
// layout independent of worker count.
//
//antlint:noalloc
func (w *World) shardPhase2(s int) {
	sh := w.sh
	sl := &sh.slabs[s]
	track := sh.track
	for t := len(sl.emig) - 1; t >= 0; t-- {
		k := int(sl.emig[t])
		last := len(sl.pos) - 1
		sl.pos[k] = sl.pos[last]
		sl.streams[k] = sl.streams[last]
		sl.ids[k] = sl.ids[last]
		sl.pos = sl.pos[:last]
		sl.streams = sl.streams[:last]
		sl.ids = sl.ids[:last]
	}
	anyGroups := len(w.numGroup) > 0
	for src := 0; src < len(sh.slabs); src++ {
		for _, m := range sh.boxes.Box(src, s) {
			sl.pos = append(sl.pos, m.pos)
			sl.streams = append(sl.streams, m.stream)
			sl.ids = append(sl.ids, m.id)
			if track {
				sl.incCell(m.pos, w.tagged[m.id])
				if anyGroups {
					if g := w.groups[m.id]; g != 0 {
						sl.groupInc(m.pos, g)
					}
				}
			}
		}
	}
	sh.boxes.ClearDst(s)
}

// rebuildOccSharded rebuilds every shard's occupancy slab from its
// current agents — the sharded twin of rebuildOcc, run only while the
// index is stale; the phases maintain the slabs incrementally from
// then on.
func (w *World) rebuildOccSharded() {
	dense := w.occ.mode == OccDense
	anyGroups := len(w.numGroup) > 0
	for s := range w.sh.slabs {
		sl := &w.sh.slabs[s]
		if dense {
			if sl.dense == nil {
				sl.dense = make([]cell, sl.hi-sl.lo)
			} else {
				clear(sl.dense)
			}
			for k, p := range sl.pos {
				c := &sl.dense[p-sl.lo]
				c.total++
				if w.tagged[sl.ids[k]] {
					c.tagged++
				}
			}
		} else {
			if sl.sparse == nil {
				sl.sparse = newOccTable(len(sl.pos))
			} else {
				sl.sparse.reset()
			}
			for k, p := range sl.pos {
				sl.sparse.inc(p, w.tagged[sl.ids[k]])
			}
		}
		if sl.group == nil {
			sl.group = make(map[groupKey]int32)
		} else {
			clear(sl.group)
		}
		if anyGroups {
			for k, p := range sl.pos {
				if g := w.groups[sl.ids[k]]; g != 0 {
					sl.group[groupKey{pos: p, group: g}]++
				}
			}
		}
	}
	w.occDirty = false
}

// shardCountsRange scatters shard s's bulk counts (totals or tagged,
// per countsTagged) into the id-indexed destination slice — the
// sharded kernel behind CountsAllInto/CountsTaggedAllInto. Writes are
// disjoint across shards (by agent id), so the pool may run shards
// concurrently and the result is identical to the serial loop.
func (w *World) shardCountsRange(s int) {
	sh := w.sh
	sl := &sh.slabs[s]
	out := sh.countsDst
	if sl.dense != nil {
		if sh.countsTagged {
			for k, p := range sl.pos {
				id := sl.ids[k]
				c := int(sl.dense[p-sl.lo].tagged)
				if w.tagged[id] {
					c--
				}
				out[id] = c
			}
		} else {
			for k, p := range sl.pos {
				out[sl.ids[k]] = int(sl.dense[p-sl.lo].total) - 1
			}
		}
		return
	}
	if len(sl.pos) == 0 {
		return
	}
	if cap(sl.counts) < len(sl.pos) {
		sl.counts = make([]int, cap(sl.pos))
	}
	buf := sl.counts[:len(sl.pos)]
	if sh.countsTagged {
		sl.sparse.taggedInto(sl.pos, buf)
		for k, id := range sl.ids {
			c := buf[k]
			if w.tagged[id] {
				c--
			}
			out[id] = c
		}
	} else {
		sl.sparse.totalsInto(sl.pos, buf)
		for k, id := range sl.ids {
			out[id] = buf[k] - 1
		}
	}
}

// shardCountsInto runs the bulk-count scatter over all shards,
// through the pool when one is warm.
//
//antlint:noalloc
func (w *World) shardCountsInto(out []int, tagged bool) {
	sh := w.sh
	sh.countsDst = out
	sh.countsTagged = tagged
	if w.pool != nil {
		w.pool.run(w, jobShardCounts, len(sh.slabs))
	} else {
		for s := range sh.slabs {
			w.shardCountsRange(s)
		}
	}
	sh.countsDst = nil
}

// incCell adds one agent to node p's cell in the slab's occupancy.
func (sl *shardSlab) incCell(p int64, tag bool) {
	if sl.dense != nil {
		c := &sl.dense[p-sl.lo]
		c.total++
		if tag {
			c.tagged++
		}
		return
	}
	sl.sparse.inc(p, tag)
}

// decCell removes one agent from node p's cell in the slab's
// occupancy.
func (sl *shardSlab) decCell(p int64, tag bool) {
	if sl.dense != nil {
		c := &sl.dense[p-sl.lo]
		c.total--
		if tag {
			c.tagged--
		}
		return
	}
	sl.sparse.dec(p, tag)
}

// cellAt returns node p's occupancy cell from the slab.
func (sl *shardSlab) cellAt(p int64) cell {
	if sl.dense != nil {
		return sl.dense[p-sl.lo]
	}
	return sl.sparse.get(p)
}

// groupDec removes one member of group g from node p in the slab's
// per-group index, deleting emptied entries.
func (sl *shardSlab) groupDec(p int64, g int32) {
	k := groupKey{pos: p, group: g}
	if n := sl.group[k] - 1; n == 0 {
		delete(sl.group, k)
	} else {
		sl.group[k] = n
	}
}

// groupInc adds one member of group g at node p to the slab's
// per-group index.
func (sl *shardSlab) groupInc(p int64, g int32) {
	sl.group[groupKey{pos: p, group: g}]++
}

// slabFor returns the slab owning position p (valid by the ownership
// invariant: an agent's slab is always the one whose range holds its
// current position).
func (w *World) slabFor(p int64) *shardSlab {
	return &w.sh.slabs[w.sh.part.Find(p)]
}

// shardLimitAgents is the agent-count ceiling in sharded mode (slot
// ids are int32).
const shardLimitAgents = math.MaxInt32
