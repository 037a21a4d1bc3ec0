package sim

import (
	"fmt"
	"math"
	"runtime"

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
// shard count: GOMAXPROCS (capped at MaxShards) for worlds with at
// least shardAutoMinAgents agents, and 1 — no sharding — below that.
const ShardAuto = 0

// shardAutoMinAgents is the population below which ShardAuto keeps the
// flat path: the migration machinery only pays for itself once
// stepping dominates per-round costs.
const shardAutoMinAgents = 1 << 20

// MaxShards caps every shard count: ShardAuto picks at most this many,
// and an explicit Config.Shards above it is an error. The migration
// mailboxes grow as the square of the count, so an uncapped one lets a
// single world allocate without bound.
const MaxShards = 64

// resolveShardCount maps cfg.Shards to an effective requested count,
// before partitioning clamps it to the graph's unit count.
func resolveShardCount(cfg Config) (int, error) {
	k := cfg.Shards
	if k < 0 || k > MaxShards {
		return 0, fmt.Errorf("sim: Config.Shards must be in [0, %d], got %d", MaxShards, k)
	}
	if k != ShardAuto {
		return k, nil
	}
	if cfg.NumAgents < shardAutoMinAgents {
		return 1, nil
	}
	return min(runtime.GOMAXPROCS(0), MaxShards), nil
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
// slots back to agents, and the occupancy index over the shard's node
// range [lo, hi). emig collects this round's emigrant slots
// (ascending) between phases.
type shardSlab struct {
	hotState
	occIndex
	ids  []int32
	emig []int32
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

// stepSharded advances one synchronous round in sharded mode on
// min(workers, shards) workers; Step passes GOMAXPROCS, and tests pass
// the count they need. The migration phase runs every round — even
// for worlds that never query counts — because slab ownership (agent
// in slab s iff its position is in s's range) is the structural
// invariant everything else indexes by.
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
		sl.syncScratch(sh)
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
					sl.dec(q, tag)
					sl.inc(p, tag)
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
			sl.dec(q, w.tagged[id])
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
				sl.inc(m.pos, w.tagged[m.id])
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

// shardCountsRange scatters shard s's bulk counts (totals or tagged,
// per countsTagged) into the id-indexed destination slice — the
// sharded kernel behind CountsAllInto/CountsTaggedAllInto. The slab
// index fills a stack block of counts in slot order, which is then
// scattered by agent id. Writes are disjoint across shards (by agent
// id), so the pool may run shards concurrently and the result is
// identical to the serial loop.
//
//antlint:noalloc
func (w *World) shardCountsRange(s int) {
	sh := w.sh
	sl := &sh.slabs[s]
	out := sh.countsDst
	var block [256]int
	for base := 0; base < len(sl.pos); base += len(block) {
		pos := sl.pos[base:min(base+len(block), len(sl.pos))]
		ids := sl.ids[base : base+len(pos)]
		counts := block[:len(pos)]
		if sh.countsTagged {
			sl.taggedInto(pos, counts)
			for j, id := range ids {
				c := counts[j]
				if w.tagged[id] {
					c--
				}
				out[id] = c
			}
		} else {
			sl.othersInto(pos, counts)
			for j, id := range ids {
				out[id] = counts[j]
			}
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

// shardLimitAgents is the agent-count ceiling in sharded mode (slot
// ids are int32).
const shardLimitAgents = math.MaxInt32
