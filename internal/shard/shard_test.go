package shard

import (
	"testing"

	"antdensity/internal/topology"
)

func TestPartitionCoversAndFinds(t *testing.T) {
	graphs := []struct {
		name string
		g    topology.Graph
		unit int64 // the row length side^(dims-1) on tori with dims >= 2, else 1
	}{
		{"torus2d-8", topology.MustTorus(2, 8), 8},
		{"torus2d-9", topology.MustTorus(2, 9), 9},
		{"torus3d-5", topology.MustTorus(3, 5), 25},
		{"ring-50", topology.MustTorus(1, 50), 1},
		{"hypercube-6", topology.MustHypercube(6), 1},
		{"complete-40", topology.MustComplete(40), 1},
	}
	for _, tc := range graphs {
		for _, k := range []int{1, 2, 3, 4, 7, 13} {
			p, err := New(tc.g, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			if p.K() < 1 || p.K() > k {
				t.Fatalf("%s k=%d: effective K %d out of range", tc.name, k, p.K())
			}
			// Bounds tile [0, NumNodes) exactly, in order, non-empty,
			// aligned to the unit.
			var prev int64
			for s := 0; s < p.K(); s++ {
				lo, hi := p.Bounds(s)
				if lo != prev {
					t.Fatalf("%s k=%d shard %d: lo %d != previous hi %d", tc.name, k, s, lo, prev)
				}
				if hi <= lo {
					t.Fatalf("%s k=%d shard %d: empty range [%d,%d)", tc.name, k, s, lo, hi)
				}
				if lo%tc.unit != 0 || hi%tc.unit != 0 {
					t.Fatalf("%s k=%d shard %d: range [%d,%d) not aligned to unit %d", tc.name, k, s, lo, hi, tc.unit)
				}
				prev = hi
			}
			if prev != tc.g.NumNodes() {
				t.Fatalf("%s k=%d: shards cover [0,%d), want [0,%d)", tc.name, k, prev, tc.g.NumNodes())
			}
			// Find agrees with Bounds for every node.
			for s := 0; s < p.K(); s++ {
				lo, hi := p.Bounds(s)
				for v := lo; v < hi; v++ {
					if got := p.Find(v); got != s {
						t.Fatalf("%s k=%d: Find(%d) = %d, want %d", tc.name, k, v, got, s)
					}
				}
			}
		}
	}
}

func TestPartitionTorusRowAlignment(t *testing.T) {
	// Three shards cannot split either torus evenly by node, so every
	// bound falling on a multiple of 16 shows the ranges are bands of
	// whole side^(dims-1) blocks.
	for _, g := range []*topology.Torus{
		topology.MustTorus(2, 16), // 256 nodes, rows of 16
		topology.MustTorus(3, 4),  // 64 nodes, blocks of 16
	} {
		p, err := New(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < p.K(); s++ {
			if lo, hi := p.Bounds(s); lo%16 != 0 || hi%16 != 0 {
				t.Fatalf("%d-d torus shard %d: range [%d,%d) splits a block of 16", g.Dims(), s, lo, hi)
			}
		}
	}
}

func TestPartitionClampsToUnits(t *testing.T) {
	g := topology.MustTorus(2, 4) // 4 rows
	p, err := New(g, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 4 {
		t.Fatalf("K = %d, want clamp to 4 rows", p.K())
	}
	if _, err := New(g, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestMailboxOrderAndReuse(t *testing.T) {
	m := NewMailbox[int](3)
	m.Put(0, 2, 10)
	m.Put(1, 2, 20)
	m.Put(0, 2, 11)
	if got := m.Box(0, 2); len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("Box(0,2) = %v, want [10 11]", got)
	}
	if got := m.Box(1, 2); len(got) != 1 || got[0] != 20 {
		t.Fatalf("Box(1,2) = %v, want [20]", got)
	}
	m.ClearDst(2)
	if len(m.Box(0, 2)) != 0 || len(m.Box(1, 2)) != 0 {
		t.Fatal("ClearDst left contents behind")
	}
	if cap(m.boxes[0*3+2]) < 2 {
		t.Fatal("ClearDst dropped backing array")
	}
	// Unrelated destinations untouched.
	m.Put(2, 0, 5)
	m.ClearDst(2)
	if got := m.Box(2, 0); len(got) != 1 || got[0] != 5 {
		t.Fatalf("ClearDst(2) touched Box(2,0): %v", got)
	}
}
