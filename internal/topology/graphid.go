package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// This file gives every graph in the package a canonical identity
// string, so a Spec built on one is content-addressable (see the root
// package's Spec.Fingerprint): two graphs with the same GraphID are the
// same graph, node for node and edge for edge. The arithmetic
// topologies name themselves by their parameters; Adj names itself by
// a hash of its adjacency arrays, so a sampled graph is identified by
// what was built, not by the recipe that built it.

// GraphID identifies the torus by its dimension count and side
// length, which determine it completely.
func (t *Torus) GraphID() string { return fmt.Sprintf("torus:dims=%d,side=%d", t.dims, t.side) }

// GraphID identifies the hypercube by its bit count.
func (h *Hypercube) GraphID() string { return fmt.Sprintf("hypercube:bits=%d", h.bits) }

// GraphID identifies the complete graph by its node count.
func (c *Complete) GraphID() string { return fmt.Sprintf("complete:nodes=%d", c.nodes) }

// GraphID identifies the graph by a SHA-256 of its node count and its
// CSR arrays (offsets, then every neighbor list in node order). The
// hash is computed on the first call, never at construction — only a
// graph whose identity is asked for pays for it — and memoized, so
// later calls are free and safe from any goroutine.
func (g *Adj) GraphID() string {
	g.idOnce.Do(func() {
		h := sha256.New()
		var buf [512 * 8]byte
		write := func(xs []int64) {
			for len(xs) > 0 {
				n := min(len(xs), len(buf)/8)
				for i, x := range xs[:n] {
					binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
				}
				h.Write(buf[:8*n])
				xs = xs[n:]
			}
		}
		write([]int64{g.NumNodes()})
		write(g.offsets)
		write(g.neighbors)
		g.id = "adj:sha256=" + hex.EncodeToString(h.Sum(nil))
	})
	return g.id
}
