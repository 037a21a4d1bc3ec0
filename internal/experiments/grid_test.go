package experiments

import (
	"reflect"
	"testing"
)

// walkFull runs gridOver over the axes' full values, as a run of the
// registered grid does.
func walkFull(axes []Axis, fn func(pt Point) error) error {
	values := make([][]string, len(axes))
	for i, a := range axes {
		values[i] = a.Values(false)
	}
	return gridOver(axes, values, values, fn)
}

func TestGridRowMajorOrder(t *testing.T) {
	axes := []Axis{
		StringAxis("a", []string{"x", "y"}, nil),
		IntAxis("b", []int{1, 2, 3}, nil),
	}
	var got [][2]string
	err := walkFull(axes, func(pt Point) error {
		got = append(got, [2]string{pt.String("a"), pt.String("b")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{
		{"x", "1"}, {"x", "2"}, {"x", "3"},
		{"y", "1"}, {"y", "2"}, {"y", "3"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grid order = %v, want row-major %v", got, want)
	}
}

func TestAxisQuickValues(t *testing.T) {
	a := IntAxis("t", []int{10, 20, 30}, []int{10})
	if got := a.Values(false); !reflect.DeepEqual(got, []string{"10", "20", "30"}) {
		t.Errorf("full values = %v", got)
	}
	if got := a.Values(true); !reflect.DeepEqual(got, []string{"10"}) {
		t.Errorf("quick values = %v", got)
	}
	noQuick := FloatAxis("d", []float64{0.1}, nil)
	if got := noQuick.Values(true); !reflect.DeepEqual(got, []string{"0.1"}) {
		t.Errorf("nil quick should fall back to full, got %v", got)
	}
}

func TestPointAccessors(t *testing.T) {
	axes := []Axis{
		FloatAxis("d", []float64{0.25, 0.5}, nil),
		IntAxis("t", []int{100}, nil),
		StringAxis("topo", []string{"ring"}, nil),
	}
	calls := 0
	err := walkFull(axes, func(pt Point) error {
		calls++
		if pt.Len() != 3 {
			t.Errorf("Len = %d", pt.Len())
		}
		if pt.Int("t") != 100 || pt.String("topo") != "ring" {
			t.Errorf("accessors: t=%v topo=%v", pt.Int("t"), pt.String("topo"))
		}
		wantD := 0.25
		if pt.Index("d") == 1 {
			wantD = 0.5
		}
		if pt.Float("d") != wantD {
			t.Errorf("Float(d) = %v at index %d", pt.Float("d"), pt.Index("d"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("grid ran %d cells, want 2", calls)
	}
}

func TestPointUnknownAxisPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown axis lookup did not panic")
		}
	}()
	_ = walkFull([]Axis{IntAxis("t", []int{1}, nil)}, func(pt Point) error {
		pt.Int("nope")
		return nil
	})
}

func TestExpandAxisSpec(t *testing.T) {
	intAxis := IntAxis("t", []int{1}, nil)
	floatAxis := FloatAxis("d", []float64{1}, nil)
	strAxis := StringAxis("topo", []string{"ring"}, nil)

	tests := []struct {
		axis Axis
		spec string
		want []string
	}{
		{intAxis, "5,10,20", []string{"5", "10", "20"}},
		{intAxis, "100:1000:100", []string{"100", "200", "300", "400", "500", "600", "700", "800", "900", "1000"}},
		{intAxis, "3:10:4", []string{"3", "7"}},
		{floatAxis, "0.1:0.3:0.1", []string{"0.1", "0.2", "0.30000000000000004"}},
		{floatAxis, "0.01, 0.05", []string{"0.01", "0.05"}},
		{strAxis, "ring,torus2d", []string{"ring", "torus2d"}},
	}
	for _, tt := range tests {
		got, err := ExpandAxisSpec(tt.axis, tt.spec)
		if err != nil {
			t.Errorf("ExpandAxisSpec(%s, %q): %v", tt.axis.Name, tt.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("ExpandAxisSpec(%s, %q) = %v, want %v", tt.axis.Name, tt.spec, got, tt.want)
		}
	}

	bad := []struct {
		axis Axis
		spec string
	}{
		{intAxis, ""},
		{intAxis, "abc"},
		{intAxis, "1,abc"},
		{intAxis, "1:10"},
		{intAxis, "10:1:2"},
		{intAxis, "1:10:0"},
		{intAxis, "1.5:2:0.5"},
		{floatAxis, "x:1:1"},
		{strAxis, "a:b:c"},
	}
	for _, tt := range bad {
		if _, err := ExpandAxisSpec(tt.axis, tt.spec); err == nil {
			t.Errorf("ExpandAxisSpec(%s, %q) succeeded, want error", tt.axis.Name, tt.spec)
		}
	}
}

func TestGridEmptyAxisErrors(t *testing.T) {
	if err := walkFull(nil, func(Point) error { return nil }); err == nil {
		t.Error("zero axes accepted")
	}
	empty := []Axis{{Name: "x", Kind: AxisInt}}
	if err := walkFull(empty, func(Point) error { return nil }); err == nil {
		t.Error("axis with no values accepted")
	}
}

func TestEveryRegisteredAxisHasValues(t *testing.T) {
	for _, e := range All() {
		for _, a := range e.Axes {
			if a.Name == "" {
				t.Errorf("%s has an unnamed axis", e.ID)
			}
			for _, quick := range []bool{false, true} {
				vs := a.Values(quick)
				if len(vs) == 0 {
					t.Errorf("%s axis %q has no values (quick=%v)", e.ID, a.Name, quick)
				}
				for _, v := range vs {
					if err := a.Check(v); err != nil {
						t.Errorf("%s axis %q default value %q fails its own kind check: %v", e.ID, a.Name, v, err)
					}
				}
			}
		}
		if e.Cell != nil && len(e.Columns) == 0 {
			t.Errorf("%s has a cell but no columns", e.ID)
		}
	}
}
