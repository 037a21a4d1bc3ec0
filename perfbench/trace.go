package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one rep or request
// share a trace id; parent is the index of the enclosing span, or -1.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for one goroutine. Nesting follows
// call order: a span begun while another is open is its child.
type tracer struct {
	base  time.Time
	spans []span
	open  []int
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(trace int, name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Trace: trace, Name: name, Parent: parent, Start: int64(time.Since(t.base)), End: -1})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.base))
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", t.spans[i].Name))
	}
	t.open = t.open[:len(t.open)-1]
}

// rollback drops the spans recorded since mark, which was taken with
// no span open, so a failed operation leaves no unclosed span.
func (t *tracer) rollback(mark int) {
	t.spans, t.open = t.spans[:mark], t.open[:0]
}

// merge appends the spans of other tracers (one per client goroutine),
// rebasing their parent indexes.
func (t *tracer) merge(others ...*tracer) {
	for _, o := range others {
		off := len(t.spans)
		for _, s := range o.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			t.spans = append(t.spans, s)
		}
	}
}

// selfTimes returns each span name's total self time: its duration
// minus the time its child spans cover. It fails when a span is
// unclosed, a child is not inside its parent, or a self time is
// negative.
func (t *tracer) selfTimes() (map[string]time.Duration, error) {
	covered := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d %q is unclosed or ends before it starts", i, s.Name)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Parent >= i || s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
				return nil, fmt.Errorf("span %d %q does not nest in its parent %q", i, s.Name, p.Name)
			}
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		d := s.End - s.Start - covered[i]
		if d < 0 {
			return nil, fmt.Errorf("span %d %q has negative self time", i, s.Name)
		}
		self[s.Name] += time.Duration(d)
	}
	return self, nil
}

// durations returns the durations of every span with the given name,
// in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
