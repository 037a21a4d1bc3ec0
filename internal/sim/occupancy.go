package sim

import (
	"fmt"
	"sort"
)

// This file holds the alternative collision-counting implementation
// used as an ablation: counting by sorting the position array instead
// of hashing it. Both paths must
// agree exactly; CountsAll (hash) is the default because it wins at
// the agent counts the experiments use, while sorting avoids hash
// overhead for very large, collision-dense worlds.

// CountsAll returns every agent's count(position) for the current
// round in one pass over the occupancy index — equivalent to calling
// Count(i) for all i, but returning a fresh slice.
func (w *World) CountsAll() []int {
	return w.CountsAllInto(make([]int, len(w.pos)))
}

// CountsAllInto is CountsAll writing into dst, the zero-allocation
// snapshot primitive used by the Run pipeline: dst must have length at
// least NumAgents, and the filled prefix dst[:NumAgents] is returned.
// It panics if dst is too short.
//
//antlint:noalloc
func (w *World) CountsAllInto(dst []int) []int {
	if len(dst) < len(w.pos) {
		panic(fmt.Sprintf("sim: CountsAllInto dst length %d < %d agents", len(dst), len(w.pos)))
	}
	if w.occDirty {
		w.rebuildOcc()
	}
	out := dst[:len(w.pos)]
	if w.sh != nil {
		// Reduce over the shard-local slabs: each shard scatters its
		// agents' counts by id (disjoint across shards, so the pool may
		// run shards concurrently), with no rebuild and no global index.
		w.shardCountsInto(out, false)
		return out
	}
	w.occ.othersInto(w.pos, out)
	return out
}

// CountsAllSorted computes the same per-agent counts as CountsAll by
// sorting a copy of the position array and scanning runs of equal
// positions. It exists to validate and benchmark the hash-based
// occupancy index against a comparison-based alternative.
func (w *World) CountsAllSorted() []int {
	return w.countsSorted(func(int) bool { return true })
}

// CountsTaggedAll returns every agent's CountTagged in one pass over
// the occupancy index — the tagged variant of CountsAll.
func (w *World) CountsTaggedAll() []int {
	return w.CountsTaggedAllInto(make([]int, len(w.pos)))
}

// CountsTaggedAllInto is CountsTaggedAll writing into dst; see
// CountsAllInto for the dst contract.
//
//antlint:noalloc
func (w *World) CountsTaggedAllInto(dst []int) []int {
	if len(dst) < len(w.pos) {
		panic(fmt.Sprintf("sim: CountsTaggedAllInto dst length %d < %d agents", len(dst), len(w.pos)))
	}
	if w.occDirty {
		w.rebuildOcc()
	}
	out := dst[:len(w.pos)]
	if w.sh != nil {
		w.shardCountsInto(out, true)
		return out
	}
	w.occ.taggedInto(w.pos, out)
	for i := range out {
		if w.tagged[i] {
			out[i]--
		}
	}
	return out
}

// CountsTaggedAllSorted is the comparison-based ablation twin of
// CountsTaggedAll.
func (w *World) CountsTaggedAllSorted() []int {
	return w.countsSorted(func(i int) bool { return w.tagged[i] })
}

// CountsInGroupAll returns every agent's CountInGroup for the given
// positive group in one pass — the per-task variant of CountsAll.
func (w *World) CountsInGroupAll(group int) []int {
	return w.CountsInGroupInto(group, make([]int, len(w.pos)))
}

// CountsInGroupInto is CountsInGroupAll writing into dst; see
// CountsAllInto for the dst contract.
//
//antlint:noalloc
func (w *World) CountsInGroupInto(group int, dst []int) []int {
	if group <= 0 {
		panic("sim: CountsInGroupInto needs a positive group")
	}
	if len(dst) < len(w.pos) {
		panic(fmt.Sprintf("sim: CountsInGroupInto dst length %d < %d agents", len(dst), len(w.pos)))
	}
	if w.occDirty {
		w.rebuildOcc()
	}
	g := int32(group)
	out := dst[:len(w.pos)]
	for i, p := range w.pos {
		c := int(w.occAt(p).group[groupKey{pos: p, group: g}])
		if w.groups[i] == g {
			c--
		}
		out[i] = c
	}
	return out
}

// CountsInGroupAllSorted is the comparison-based ablation twin of
// CountsInGroupAll.
func (w *World) CountsInGroupAllSorted(group int) []int {
	if group <= 0 {
		panic("sim: CountsInGroupAllSorted needs a positive group")
	}
	g := int32(group)
	return w.countsSorted(func(i int) bool { return w.groups[i] == g })
}

// countsSorted computes, for every agent, the number of *other*
// agents at its position satisfying member, by sorting a copy of the
// position array and scanning runs of equal positions. member
// receiving the identity predicate reproduces CountsAll; tag- and
// group-membership predicates give the property/task variants.
func (w *World) countsSorted(member func(agent int) bool) []int {
	n := len(w.pos)
	type slot struct {
		pos   int64
		agent int32
	}
	slots := make([]slot, n)
	for i, p := range w.pos {
		slots[i] = slot{pos: p, agent: int32(i)}
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })
	out := make([]int, n)
	for start := 0; start < n; {
		end := start + 1
		for end < n && slots[end].pos == slots[start].pos {
			end++
		}
		members := 0
		for k := start; k < end; k++ {
			if member(int(slots[k].agent)) {
				members++
			}
		}
		for k := start; k < end; k++ {
			c := members
			if member(int(slots[k].agent)) {
				c--
			}
			out[slots[k].agent] = c
		}
		start = end
	}
	return out
}
