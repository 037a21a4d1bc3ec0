// Package shard is the spatial domain-decomposition layer: it
// partitions a graph's node space into K contiguous shards and
// provides the deterministic per-(src, dst) mailboxes a sharded
// simulation uses to migrate agents between shards at round
// boundaries.
//
// The package deliberately knows nothing about agents, policies, or
// occupancy — it answers exactly two questions: "which shard owns node
// p?" (Partition.Find, O(1) arithmetic) and "in what order do
// migrants merge?" (Mailbox, fixed (src, insertion-index) order). The
// simulation layer (internal/sim) owns everything else.
//
// # Tiling rule
//
// Shards are contiguous node-id ranges [Bounds(s), Bounds(s+1)).
// For a k-dimensional torus with k >= 2 the ranges are aligned to
// "rows" — blocks of side^(k-1) consecutive ids sharing their last
// coordinate — so each shard is a band of full rows: the row-band
// tiling of the paper's 2D grid. Every other graph family (rings,
// hypercubes, complete graphs, CSR adjacency graphs) partitions into
// plain contiguous vertex ranges, which for CSR graphs means each
// shard owns a contiguous run of the offsets array.
//
// A random-walking agent moves to an adjacent node each round, so on
// spatially coherent topologies almost all moves stay inside the
// owning shard's range; only agents in boundary rows can emigrate,
// keeping the cross-shard migration phase small.
package shard

import (
	"fmt"

	"antdensity/internal/topology"
)

// Partition divides a graph's node space [0, NumNodes) into K
// contiguous ranges. The zero value is not usable; build one with New.
type Partition struct {
	k     int
	nodes int64
	unit  int64 // range-alignment unit (row length on tori, else 1)
	units int64 // nodes / unit
	q, r  int64 // units per shard: the first r shards get q+1, the rest q
}

// New partitions g into (up to) k contiguous shards. k is clamped to
// the number of alignment units the graph offers (a torus has one unit
// per row, other graphs one per node), so the effective shard count is
// K() and may be smaller than requested. k < 1 is an error.
func New(g topology.Graph, k int) (*Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1, got %d", k)
	}
	nodes := g.NumNodes()
	unit := int64(1)
	if t, ok := g.(*topology.Torus); ok && t.Dims() >= 2 {
		// Row length side^(dims-1): a unit is one block of ids sharing
		// the last coordinate, so unit-aligned ranges are row bands.
		unit = 1
		for i := 0; i < t.Dims()-1; i++ {
			unit *= t.Side()
		}
	}
	units := nodes / unit
	if int64(k) > units {
		k = int(units)
	}
	p := &Partition{k: k, nodes: nodes, unit: unit, units: units}
	p.q = units / int64(k)
	p.r = units % int64(k)
	return p, nil
}

// K returns the effective number of shards.
func (p *Partition) K() int { return p.k }

// NumNodes returns the size of the partitioned node space.
func (p *Partition) NumNodes() int64 { return p.nodes }

// Find returns the shard owning node v. It is O(1) arithmetic and
// valid for any v in [0, NumNodes).
func (p *Partition) Find(v int64) int {
	u := v / p.unit
	big := p.r * (p.q + 1) // units covered by the q+1-sized shards
	if u < big {
		return int(u / (p.q + 1))
	}
	return int(p.r + (u-big)/p.q)
}

// Bounds returns shard s's node range [lo, hi).
func (p *Partition) Bounds(s int) (lo, hi int64) {
	return p.start(s), p.start(s + 1)
}

// start returns the first node id of shard s (or NumNodes for s == K).
func (p *Partition) start(s int) int64 {
	u := int64(s) * p.q
	if int64(s) < p.r {
		u += int64(s)
	} else {
		u += p.r
	}
	return u * p.unit
}

// Mailbox is a K x K set of outboxes for cross-shard migration with a
// fixed merge order: during the send phase, the worker owning shard
// src appends its emigrants to Put(src, dst, ...) in ascending slot
// order; during the merge phase, the worker owning shard dst drains
// Box(src, dst) for src = 0..K-1 in order. The resulting arrival
// order is a pure function of the round's movement — independent of
// worker count and scheduling — which is what extends the simulator's
// workers=1-vs-N bit-identity invariant to sharded execution.
//
// Concurrency contract: box (src, dst) is written only by src's owner
// (Put) and read/cleared only by dst's owner (Box/ClearDst), with a
// barrier between the send and merge phases. Boxes keep their backing
// arrays across rounds, so a warmed mailbox allocates nothing.
type Mailbox[T any] struct {
	k     int
	boxes [][]T // boxes[src*k+dst]
}

// NewMailbox returns a mailbox for k shards.
func NewMailbox[T any](k int) *Mailbox[T] {
	return &Mailbox[T]{k: k, boxes: make([][]T, k*k)}
}

// Put appends v to the (src, dst) outbox.
func (m *Mailbox[T]) Put(src, dst int, v T) {
	i := src*m.k + dst
	m.boxes[i] = append(m.boxes[i], v)
}

// Box returns the (src, dst) outbox contents in insertion order.
func (m *Mailbox[T]) Box(src, dst int) []T {
	return m.boxes[src*m.k+dst]
}

// ClearDst empties every outbox addressed to dst, keeping the backing
// arrays for reuse.
func (m *Mailbox[T]) ClearDst(dst int) {
	for src := 0; src < m.k; src++ {
		i := src*m.k + dst
		m.boxes[i] = m.boxes[i][:0]
	}
}
