package topology

import (
	"testing"
	"testing/quick"

	"antdensity/internal/rng"
)

func TestNewTorusValidation(t *testing.T) {
	tests := []struct {
		name    string
		dims    int
		side    int64
		wantErr bool
	}{
		{name: "ring", dims: 1, side: 10, wantErr: false},
		{name: "grid", dims: 2, side: 100, wantErr: false},
		{name: "zero dims", dims: 0, side: 10, wantErr: true},
		{name: "negative dims", dims: -1, side: 10, wantErr: true},
		{name: "side one", dims: 2, side: 1, wantErr: true},
		{name: "overflow", dims: 10, side: 1 << 20, wantErr: true},
		{name: "huge 2d ok", dims: 2, side: 1 << 31, wantErr: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewTorus(tt.dims, tt.side)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewTorus(%d, %d) error = %v, wantErr %v", tt.dims, tt.side, err, tt.wantErr)
			}
		})
	}
}

func TestTorusNumNodes(t *testing.T) {
	tests := []struct {
		dims int
		side int64
		want int64
	}{
		{1, 7, 7},
		{2, 5, 25},
		{3, 4, 64},
		{4, 3, 81},
	}
	for _, tt := range tests {
		g := MustTorus(tt.dims, tt.side)
		if got := g.NumNodes(); got != tt.want {
			t.Errorf("Torus(%d, %d).NumNodes() = %d, want %d", tt.dims, tt.side, got, tt.want)
		}
	}
}

func TestTorusCoordsRoundTrip(t *testing.T) {
	g := MustTorus(3, 5)
	for v := int64(0); v < g.NumNodes(); v++ {
		coords := g.Coords(v)
		if got := g.Node(coords...); got != v {
			t.Fatalf("Node(Coords(%d)) = %d", v, got)
		}
	}
}

func TestTorusNodeReducesModSide(t *testing.T) {
	g := MustTorus(2, 10)
	if got, want := g.Node(12, -3), g.Node(2, 7); got != want {
		t.Errorf("Node(12, -3) = %d, want %d", got, want)
	}
}

func TestTorusNeighborsAreAdjacent(t *testing.T) {
	g := MustTorus(2, 6)
	for v := int64(0); v < g.NumNodes(); v++ {
		cv := g.Coords(v)
		for i := 0; i < g.Degree(v); i++ {
			u := g.Neighbor(v, i)
			cu := g.Coords(u)
			diffs := 0
			for dim := range cv {
				d := cu[dim] - cv[dim]
				if d != 0 {
					if d != 1 && d != -1 && d != g.Side()-1 && d != -(g.Side()-1) {
						t.Fatalf("neighbor %d of %d changes dim %d by %d", u, v, dim, d)
					}
					diffs++
				}
			}
			if diffs != 1 {
				t.Fatalf("neighbor %d of %d changes %d coordinates", u, v, diffs)
			}
		}
	}
}

func TestTorusNeighborSymmetry(t *testing.T) {
	// +dim and -dim neighbors are inverse: stepping +1 then -1 returns.
	g := MustTorus(3, 4)
	for v := int64(0); v < g.NumNodes(); v++ {
		for dim := 0; dim < g.Dims(); dim++ {
			plus := g.Neighbor(v, 2*dim)
			back := g.Neighbor(plus, 2*dim+1)
			if back != v {
				t.Fatalf("(+%d then -%d) from %d landed at %d", dim, dim, v, back)
			}
		}
	}
}

func TestTorusNeighborPanics(t *testing.T) {
	g := MustTorus(2, 4)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"bad node", func() { g.Neighbor(-1, 0) }},
		{"node too large", func() { g.Neighbor(g.NumNodes(), 0) }},
		{"bad index", func() { g.Neighbor(0, 4) }},
		{"negative index", func() { g.Neighbor(0, -1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestTorusWrapAround(t *testing.T) {
	g := MustTorus(1, 5)
	// node 4 + 1 wraps to 0; node 0 - 1 wraps to 4.
	if got := g.Neighbor(4, 0); got != 0 {
		t.Errorf("Neighbor(4, +) = %d, want 0", got)
	}
	if got := g.Neighbor(0, 1); got != 4 {
		t.Errorf("Neighbor(0, -) = %d, want 4", got)
	}
}

func TestTorusDisplacement(t *testing.T) {
	g := MustTorus(2, 10)
	tests := []struct {
		a, b []int64
		want []int64
	}{
		{[]int64{0, 0}, []int64{1, 0}, []int64{1, 0}},
		{[]int64{0, 0}, []int64{9, 0}, []int64{-1, 0}},
		{[]int64{5, 5}, []int64{0, 0}, []int64{5, 5}}, // exactly half wraps to +5
		{[]int64{2, 3}, []int64{2, 3}, []int64{0, 0}},
	}
	for _, tt := range tests {
		got := g.Displacement(g.Node(tt.a...), g.Node(tt.b...))
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Displacement(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
				break
			}
		}
	}
}

func TestTorusHugeSideNoOverflow(t *testing.T) {
	g := MustTorus(2, 1<<31)
	v := g.Node(0, 0)
	u := g.Neighbor(v, 1) // -x wraps to side-1
	if got := g.Coords(u)[0]; got != 1<<31-1 {
		t.Errorf("wrap on huge torus: coord = %d", got)
	}
}

func TestTorusRandomWalkStaysInRange(t *testing.T) {
	g := MustTorus(2, 50)
	s := rng.New(1)
	v := RandomNode(g, s)
	for i := 0; i < 10000; i++ {
		v = RandomStep(g, v, s)
		if v < 0 || v >= g.NumNodes() {
			t.Fatalf("walk left node range: %d", v)
		}
	}
}

func TestTorusParityInvariant(t *testing.T) {
	// On an even-side torus the coordinate-sum parity flips each step
	// (the graph is bipartite): a walk returns to its origin only after
	// an even number of steps.
	g := MustTorus(2, 8)
	s := rng.New(2)
	start := g.Node(3, 3)
	v := start
	for step := 1; step <= 1001; step++ {
		v = RandomStep(g, v, s)
		if step%2 == 1 && v == start {
			t.Fatalf("returned to origin after odd step count %d", step)
		}
	}
}

func TestTorusPropertyNeighborCount(t *testing.T) {
	f := func(dims uint8, side uint8, node uint16) bool {
		k := int(dims%3) + 1
		l := int64(side%13) + 3
		g := MustTorus(k, l)
		v := int64(node) % g.NumNodes()
		if g.Degree(v) != 2*k {
			return false
		}
		// All neighbors distinct from v (side >= 3).
		for i := 0; i < g.Degree(v); i++ {
			if g.Neighbor(v, i) == v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingMatchesTorus1D(t *testing.T) {
	r, err := NewRing(12)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dims() != 1 || r.NumNodes() != 12 || r.CommonDegree() != 2 {
		t.Errorf("ring(12): dims=%d nodes=%d degree=%d", r.Dims(), r.NumNodes(), r.CommonDegree())
	}
}
