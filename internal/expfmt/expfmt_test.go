package expfmt

import (
	"strings"
	"testing"
)

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("a-much-longer-name", 2)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("separator line = %q", lines[1])
	}
	// Value column should start at the same offset in both data rows.
	idx2 := strings.Index(lines[2], "1.500")
	idx3 := strings.Index(lines[3], "2")
	if idx2 != idx3 {
		t.Errorf("columns misaligned: %d vs %d\n%s", idx2, idx3, out)
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{0.5, "0.50000"},
		{12.3456789, "12.346"},
		{1e-6, "1.000e-06"},
		{3e9, "3.000e+09"},
		{-0.25, "-0.25000"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.in); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
