package sim

import (
	"fmt"

	"antdensity/internal/shard"
)

// OccupancyIndex selects the representation of the occupancy index
// that serves Count/CountTagged/CountInGroup queries; see the package
// documentation for the selection rule and maintenance strategy.
type OccupancyIndex int

const (
	// OccAuto picks OccDense when the graph's node count is at most
	// denseOccupancyMaxNodes, and OccSparse otherwise.
	OccAuto OccupancyIndex = iota
	// OccDense indexes occupancy with a flat []cell array of length
	// NumNodes — O(1) untyped-array lookups, 8 bytes per node.
	OccDense
	// OccSparse indexes occupancy with an open-addressed hash table
	// keyed by occupied node — memory proportional to the agent count,
	// for graphs far larger than the population traverses.
	OccSparse
)

// denseOccupancyMaxNodes is the OccAuto memory budget: up to 1<<22
// cells of 8 bytes each (32 MiB) may be spent on the dense array.
const denseOccupancyMaxNodes = 1 << 22

// denseOccupancyForceLimit caps an explicit Config{Occupancy: OccDense}
// request; beyond it the array itself would be unreasonably large
// (1<<26 cells = 512 MiB).
const denseOccupancyForceLimit = 1 << 26

// cell is one node's occupancy: every agent there, and the tagged ones.
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
// that knows which representation is live: a dense []cell indexed by
// p-lo, or a sparse occTable keyed by node. Storage is allocated by
// the first reset, so worlds that never query counts pay nothing for
// it. group always holds the per-(position, group) counts of grouped
// agents, in either representation.
type occIndex struct {
	lo, hi int64
	dense  []cell
	sparse *occTable
	group  map[groupKey]int32
}

// initOcc resolves and validates the index mode chosen by cfg. For a
// sharded world (part non-nil) the budget and force limits apply to
// the widest shard's node span rather than the whole graph, because
// each shard allocates its own dense slab — a 16M-node torus that is
// sparse flat becomes dense under 4+ shards, one of the structural
// wins of the decomposition.
func (w *World) initOcc(mode OccupancyIndex, part *shard.Partition) error {
	span := w.graph.NumNodes()
	if part != nil && part.K() >= 2 {
		span = 0
		for s := 0; s < part.K(); s++ {
			lo, hi := part.Bounds(s)
			if hi-lo > span {
				span = hi - lo
			}
		}
	}
	switch mode {
	case OccAuto:
		if span <= denseOccupancyMaxNodes {
			mode = OccDense
		} else {
			mode = OccSparse
		}
	case OccDense:
		if span > denseOccupancyForceLimit {
			return fmt.Errorf("sim: graph with %d nodes per shard is too large for a dense occupancy index (limit %d)", span, int64(denseOccupancyForceLimit))
		}
	case OccSparse:
	default:
		return fmt.Errorf("sim: unknown occupancy index selector %d", mode)
	}
	w.occMode = mode
	w.occ.hi = w.graph.NumNodes()
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
			sl.reset(w.occMode, len(sl.pos))
			for k, p := range sl.pos {
				id := sl.ids[k]
				sl.inc(p, w.tagged[id])
				if g := w.groups[id]; g != 0 {
					sl.groupInc(p, g)
				}
			}
		}
	} else {
		w.occ.reset(w.occMode, len(w.pos))
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

// reset empties the index in the given resolved mode, allocating its
// storage on first use: a dense array spanning [lo, hi), or a sparse
// table sized for agents. Always clearing the group map keeps stale
// entries from surviving the last member of a group being cleared.
func (x *occIndex) reset(mode OccupancyIndex, agents int) {
	switch {
	case mode == OccSparse && x.sparse == nil:
		x.sparse = newOccTable(agents)
	case mode == OccSparse:
		x.sparse.reset()
	case x.dense == nil:
		x.dense = make([]cell, x.hi-x.lo)
	default:
		clear(x.dense)
	}
	if x.group == nil {
		x.group = make(map[groupKey]int32)
	} else {
		clear(x.group)
	}
}

// inc adds one agent (tagged or not) to node p's cell.
func (x *occIndex) inc(p int64, tag bool) {
	if x.dense == nil {
		x.sparse.inc(p, tag)
		return
	}
	c := &x.dense[p-x.lo]
	c.total++
	if tag {
		c.tagged++
	}
}

// dec removes one agent (tagged or not) from node p's cell.
func (x *occIndex) dec(p int64, tag bool) {
	if x.dense == nil {
		x.sparse.dec(p, tag)
		return
	}
	c := &x.dense[p-x.lo]
	c.total--
	if tag {
		c.tagged--
	}
}

// addTag adjusts only the tagged counter of node p's cell by delta;
// an agent stands at p.
func (x *occIndex) addTag(p int64, delta int32) {
	if x.dense == nil {
		x.sparse.addTag(p, delta)
		return
	}
	x.dense[p-x.lo].tagged += delta
}

// cellAt returns node p's cell (zero if unoccupied).
func (x *occIndex) cellAt(p int64) cell {
	if x.dense == nil {
		return x.sparse.get(p)
	}
	return x.dense[p-x.lo]
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
	if d := x.dense; d != nil {
		lo := x.lo
		for k, p := range pos {
			out[k] = int(d[p-lo].total) - 1
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
	if d := x.dense; d != nil {
		lo := x.lo
		for k, p := range pos {
			out[k] = int(d[p-lo].tagged)
		}
		return
	}
	x.sparse.lookupInto(pos, out, true)
}

// applyMoves updates the index with the flat world's round of
// movement: for every agent whose position changed from prev[i] to
// pos[i], decrement the cell it left and increment the cell it
// entered. groups is nil when no agent has a group. Cost is O(agents)
// arithmetic with no rebuild, no clearing, and no steady-state
// allocation.
//
// The dense branch is a deliberately plain scatter, written inline
// rather than through inc/dec, which do not inline. A cache-blocked
// variant (pack the round's ±1 deltas, counting-sort them by 64 KiB
// cell block, apply block by block — sound because the deltas
// commute) was implemented and measured for PR 8 and LOST at every
// reachable dense size, including the 1<<22-cell OccAuto maximum and
// a forced-dense 1<<24-cell array: the sort's three extra streaming
// passes cost more bandwidth than the scattered misses they save,
// because out-of-order execution already overlaps those misses.
// BENCH_PR8.json records the numbers; don't re-add blocking without
// beating them.
//
//antlint:noalloc
func (x *occIndex) applyMoves(pos, prev []int64, tagged []bool, groups []int32) {
	prev, tagged = prev[:len(pos)], tagged[:len(pos)]
	if d := x.dense; d != nil {
		lo := x.lo
		for i, p := range pos {
			q := prev[i]
			if p == q {
				continue
			}
			d[q-lo].total--
			d[p-lo].total++
			if tagged[i] {
				d[q-lo].tagged--
				d[p-lo].tagged++
			}
			if groups != nil {
				if g := groups[i]; g != 0 {
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
