package sim

import "fmt"

// OccupancyIndex selects the representation of the occupancy index
// that serves Count/CountTagged/CountInGroup queries; see the package
// documentation for the selection rule and maintenance strategy.
type OccupancyIndex int

const (
	// OccAuto picks by the world's node and agent counts
	// (autoOccupancy): OccDense when the array fits the world's
	// budget, OccSparse otherwise.
	OccAuto OccupancyIndex = iota
	// OccDense indexes occupancy with a flat []int32 array of totals
	// of length NumNodes — O(1) untyped-array lookups, 4 bytes per
	// node — plus a second such array of tagged counts once the world
	// holds a tagged agent.
	OccDense
	// OccSparse indexes occupancy with an open-addressed hash table
	// keyed by occupied node — memory proportional to the agent count,
	// for graphs far larger than the population traverses.
	OccSparse
)

// denseOccupancyMaxNodes is the fixed part of OccAuto's budget: a
// world of at most 1<<22 nodes (16 MiB of totals) gets the dense array
// whatever its population.
const denseOccupancyMaxNodes = 1 << 22

// denseOccupancyNodesPerAgent is the per-agent part of OccAuto's
// budget: a larger world still gets the dense array while it has at
// most this many nodes per agent (128 B of totals per agent). It is a
// memory bound, set below the speed crossover. Whole density runs on
// flat 4096² worlds (world build plus 100 rounds, GOMAXPROCS=1, 4
// alternating reps, 2-vCPU VM, with the 8-byte cells the dense array
// then held) ran dense 1.3–1.5× faster than sparse at 256 nodes per
// agent, 1.9–2.5× at 32 and 2.1–2.6× at 16; at 1024 sparse was faster
// (median 0.077 s against 0.109 s), because allocating and zeroing the
// 128 MiB array outweighs what 16k agents save per round.
const denseOccupancyNodesPerAgent = 32

// denseOccupancyForceLimit caps any world's dense array, picked by
// OccAuto or forced by Config{Occupancy: OccDense}: beyond it the array
// itself would be unreasonably large (1<<26 totals = 256 MiB, twice
// that with tag counts).
const denseOccupancyForceLimit = 1 << 26

// autoOccupancy is OccAuto's rule: dense when the world's node count
// is at most max(denseOccupancyMaxNodes, denseOccupancyNodesPerAgent ×
// agents) and within the force limit, sparse otherwise. It reads only
// the world's size, never its partition, so a sharded world's slabs
// inherit the flat world's representation and the shard count changes
// neither it nor its memory.
func autoOccupancy(nodes int64, agents int) OccupancyIndex {
	budget := max(denseOccupancyMaxNodes, denseOccupancyNodesPerAgent*int64(agents))
	if nodes <= min(budget, denseOccupancyForceLimit) {
		return OccDense
	}
	return OccSparse
}

// cell is one node's occupancy in the sparse table: every agent there,
// and the tagged ones.
type cell struct {
	total  int32
	tagged int32
}

// groupKey indexes the per-group occupancy map by (position, group).
type groupKey struct {
	pos   int64
	group int32
}

// occIndex is the per-round collision-count index over the node range
// [lo, hi): the flat world keeps one spanning the whole graph, and
// each shard slab keeps one over its own range. It is the only code
// that knows which representation is live: dense int32 arrays indexed
// by p-lo, or a sparse occTable keyed by node. Storage is allocated by
// the first reset, so worlds that never query counts pay nothing for
// it; the dense tag counts wait further, until the world holds a
// tagged agent (ensureTags), so density, quorum and netsize worlds
// never carry them. group always holds the per-(position, group)
// counts of grouped agents, in either representation.
type occIndex struct {
	lo, hi int64
	totals []int32 // dense: every agent at node lo+j; nil when sparse
	tags   []int32 // dense: the tagged agents at node lo+j; nil until the world holds one
	sparse *occTable
	group  map[groupKey]int32
}

// initOcc resolves and validates the index mode chosen by cfg, once
// for the whole world; every slab of a sharded world uses it.
func (w *World) initOcc(mode OccupancyIndex) error {
	nodes := w.graph.NumNodes()
	switch mode {
	case OccAuto:
		mode = autoOccupancy(nodes, len(w.pos))
	case OccDense:
		if nodes > denseOccupancyForceLimit {
			return fmt.Errorf("sim: graph with %d nodes is too large for a dense occupancy index (limit %d)", nodes, int64(denseOccupancyForceLimit))
		}
	case OccSparse:
	default:
		return fmt.Errorf("sim: unknown occupancy index selector %d", mode)
	}
	w.occMode = mode
	w.occ.hi = nodes
	return nil
}

// rebuildOcc refreshes the occupancy index — the flat world's, or
// every shard slab's — from scratch. It runs only when the index is
// stale (initial placement); once built, stepping maintains the index
// incrementally (applyMoves flat, the shard phases per slab) and the
// index never goes stale again.
func (w *World) rebuildOcc() {
	if sh := w.sh; sh != nil {
		for s := range sh.slabs {
			sl := &sh.slabs[s]
			sl.reset(w.occMode, len(sl.pos), w.numTag > 0)
			for k, p := range sl.pos {
				id := sl.ids[k]
				sl.inc(p, w.tagged[id])
				if g := w.groups[id]; g != 0 {
					sl.groupInc(p, g)
				}
			}
		}
	} else {
		w.occ.reset(w.occMode, len(w.pos), w.numTag > 0)
		for i, p := range w.pos {
			w.occ.inc(p, w.tagged[i])
			if g := w.groups[i]; g != 0 {
				w.occ.groupInc(p, g)
			}
		}
	}
	w.occDirty = false
}

// occAt returns the occupancy index holding node p: the flat world's,
// or the owning shard slab's (valid by the ownership invariant: an
// agent's slab is always the one whose range holds its position).
func (w *World) occAt(p int64) *occIndex {
	if sh := w.sh; sh != nil {
		return &sh.slabs[sh.part.Find(p)].occIndex
	}
	return &w.occ
}

// ensureTagCounts gives every dense index of the world — the flat
// one, or every shard slab's — its tag counts, all zero, unless it has
// them. SetTagged calls it for the live index's first tagged agent, so
// the tag arrays are allocated once for the whole world, never by Step.
func (w *World) ensureTagCounts() {
	if sh := w.sh; sh != nil {
		for s := range sh.slabs {
			sh.slabs[s].ensureTags()
		}
		return
	}
	w.occ.ensureTags()
}

// ensureTags allocates a dense index's tag counts, all zero, unless it
// has them; the sparse table keeps its tagged counts in its cells.
func (x *occIndex) ensureTags() {
	if x.tags == nil && x.totals != nil {
		x.tags = make([]int32, len(x.totals))
	}
}

// reset empties the index in the given resolved mode, allocating its
// storage on first use: a dense totals array spanning [lo, hi), with
// tag counts too when the world holds a tagged agent (withTags), or a
// sparse table sized for agents. Always clearing the group map keeps
// stale entries from surviving the last member of a group being
// cleared.
func (x *occIndex) reset(mode OccupancyIndex, agents int, withTags bool) {
	switch {
	case mode == OccSparse && x.sparse == nil:
		x.sparse = newOccTable(agents)
	case mode == OccSparse:
		x.sparse.reset()
	case x.totals == nil:
		x.totals = make([]int32, x.hi-x.lo)
	default:
		clear(x.totals)
	}
	clear(x.tags)
	if withTags {
		x.ensureTags()
	}
	if x.group == nil {
		x.group = make(map[groupKey]int32)
	} else {
		clear(x.group)
	}
}

// inc adds one agent (tagged or not) to node p. A dense index holds
// tag counts whenever the world holds a tagged agent.
func (x *occIndex) inc(p int64, tag bool) {
	if x.totals == nil {
		x.sparse.inc(p, tag)
		return
	}
	j := p - x.lo
	x.totals[j]++
	if tag {
		x.tags[j]++
	}
}

// dec removes one agent (tagged or not) from node p.
func (x *occIndex) dec(p int64, tag bool) {
	if x.totals == nil {
		x.sparse.dec(p, tag)
		return
	}
	j := p - x.lo
	x.totals[j]--
	if tag {
		x.tags[j]--
	}
}

// addTag adjusts only the tagged count of node p by delta; an agent
// stands at p, and a dense index holds tag counts (ensureTagCounts).
func (x *occIndex) addTag(p int64, delta int32) {
	if x.totals == nil {
		x.sparse.addTag(p, delta)
		return
	}
	x.tags[p-x.lo] += delta
}

// cellAt returns node p's occupancy (zero if unoccupied).
func (x *occIndex) cellAt(p int64) cell {
	if x.totals == nil {
		return x.sparse.get(p)
	}
	j := p - x.lo
	c := cell{total: x.totals[j]}
	if x.tags != nil {
		c.tagged = x.tags[j]
	}
	return c
}

// groupInc adds one member of group g at node p to the per-group
// index.
func (x *occIndex) groupInc(p int64, g int32) {
	x.group[groupKey{pos: p, group: g}]++
}

// groupDec removes one member of group g from node p in the per-group
// index, deleting emptied entries.
func (x *occIndex) groupDec(p int64, g int32) {
	k := groupKey{pos: p, group: g}
	if n := x.group[k] - 1; n == 0 {
		delete(x.group, k)
	} else {
		x.group[k] = n
	}
}

// othersInto fills out[k] with count(pos[k]) for an agent standing at
// pos[k]: the node's total occupancy minus the agent itself. The
// self-subtraction is fused into the dense gather, which is the bulk
// count snapshot's hot loop. out must have at least len(pos) elements.
//
//antlint:noalloc
func (x *occIndex) othersInto(pos []int64, out []int) {
	out = out[:len(pos)]
	if d := x.totals; d != nil {
		lo := x.lo
		for k, p := range pos {
			out[k] = int(d[p-lo]) - 1
		}
		return
	}
	// Every agent stands on an occupied node, so the totals are ≥ 1
	// and subtracting self is exact.
	x.sparse.lookupInto(pos, out, false)
	for k := range out {
		out[k]--
	}
}

// taggedInto fills out[k] with the number of tagged agents at pos[k],
// the caller's own tag included. out must have at least len(pos)
// elements.
//
//antlint:noalloc
func (x *occIndex) taggedInto(pos []int64, out []int) {
	out = out[:len(pos)]
	if x.totals != nil {
		tg := x.tags
		if tg == nil {
			clear(out) // the world has never held a tagged agent
			return
		}
		lo := x.lo
		for k, p := range pos {
			out[k] = int(tg[p-lo])
		}
		return
	}
	x.sparse.lookupInto(pos, out, true)
}

// applyMoves updates the index with the flat world's round of
// movement: for every agent whose position changed from prev[i] to
// pos[i], decrement the count of the node it left and increment the
// count of the node it entered. groups is nil when no agent has a
// group. Cost is O(agents) arithmetic with no rebuild, no clearing,
// and no steady-state allocation.
//
// The dense branch is one plain, branch-free scatter over the totals
// — a stayer's decrement and increment hit one node and cancel, so no
// p == q test is needed — then a tag pass only when the world has tag
// counts and a group pass only when it has groups. It is written
// inline rather than through inc/dec, which do not inline. A
// cache-blocked variant (pack the round's ±1 deltas, counting-sort
// them by 64 KiB cell block, apply block by block — sound because the
// deltas commute) was implemented, measured against the scatter, and
// LOST at every reachable dense size, including the 1<<22-cell OccAuto
// maximum and a forced-dense 1<<24-cell array: the sort's three extra
// streaming passes cost more bandwidth than the scattered misses they
// save, because out-of-order execution already overlaps those misses.
// BENCH_PR8.json records the numbers; don't re-add blocking without
// beating them.
//
//antlint:noalloc
func (x *occIndex) applyMoves(pos, prev []int64, tagged []bool, groups []int32) {
	prev, tagged = prev[:len(pos)], tagged[:len(pos)]
	if d := x.totals; d != nil {
		lo := x.lo
		for i, p := range pos {
			d[prev[i]-lo]--
			d[p-lo]++
		}
		if tg := x.tags; tg != nil {
			for i, p := range pos {
				if tagged[i] {
					tg[prev[i]-lo]--
					tg[p-lo]++
				}
			}
		}
		if groups != nil {
			groups = groups[:len(pos)]
			for i, p := range pos {
				if g, q := groups[i], prev[i]; g != 0 && p != q {
					x.groupDec(q, g)
					x.groupInc(p, g)
				}
			}
		}
		return
	}
	t := x.sparse
	for i, p := range pos {
		q := prev[i]
		if p == q {
			continue
		}
		tag := tagged[i]
		t.dec(q, tag)
		t.inc(p, tag)
		if groups != nil {
			if g := groups[i]; g != 0 {
				x.groupDec(q, g)
				x.groupInc(p, g)
			}
		}
	}
}
