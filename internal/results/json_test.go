package results

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
)

// The oracle: the reflection encoder WriteJSON and the MarshalJSON
// methods replaced — json.MarshalIndent over mirror types whose cells
// and metrics marshal through encoding/json exactly as the package
// used to. The appender must write its bytes.

// oracleFloat is a float64 whose JSON form survives non-finite values.
type oracleFloat float64

func (f oracleFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

type oracleCell Cell

func (c oracleCell) MarshalJSON() ([]byte, error) {
	w := struct {
		V    *oracleFloat `json:"v,omitempty"`
		Int  *int64       `json:"int,omitempty"`
		Str  *string      `json:"str,omitempty"`
		Bool *bool        `json:"bool,omitempty"`
		CI95 *oracleFloat `json:"ci95,omitempty"`
		N    int          `json:"n,omitempty"`
		Unit string       `json:"unit,omitempty"`
	}{N: c.N, Unit: c.Unit}
	switch c.Kind {
	case KindFloat:
		v := oracleFloat(c.Value)
		w.V = &v
	case KindInt:
		i := c.Int
		w.Int = &i
	case KindString:
		s := c.Text
		w.Str = &s
	case KindBool:
		b := c.Bool
		w.Bool = &b
	}
	if c.HasCI {
		ci := oracleFloat(c.CI95)
		w.CI95 = &ci
	}
	return json.Marshal(w)
}

type oracleMetrics Metrics

func (m oracleMetrics) MarshalJSON() ([]byte, error) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		key, err := json.Marshal(name)
		if err != nil {
			return nil, err
		}
		b.Write(key)
		b.WriteByte(':')
		val, err := oracleFloat(m[name]).MarshalJSON()
		if err != nil {
			return nil, err
		}
		b.Write(val)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

type oracleSeries struct {
	Name    string         `json:"name,omitempty"`
	Columns []Column       `json:"columns"`
	Rows    [][]oracleCell `json:"rows"`
}

type oracleResult struct {
	ID      string          `json:"id"`
	Title   string          `json:"title,omitempty"`
	Claim   string          `json:"claim,omitempty"`
	Seed    uint64          `json:"seed"`
	Quick   bool            `json:"quick,omitempty"`
	Series  []*oracleSeries `json:"series,omitempty"`
	Metrics oracleMetrics   `json:"metrics,omitempty"`
	Notes   []string        `json:"notes,omitempty"`
}

// oracleOf mirrors r, keeping nil and empty slices apart.
func oracleOf(r *Result) *oracleResult {
	o := &oracleResult{ID: r.ID, Title: r.Title, Claim: r.Claim, Seed: r.Seed, Quick: r.Quick,
		Metrics: oracleMetrics(r.Metrics), Notes: r.Notes}
	if r.Series != nil {
		o.Series = make([]*oracleSeries, len(r.Series))
	}
	for i, s := range r.Series {
		if s == nil {
			continue
		}
		os := &oracleSeries{Name: s.Name, Columns: s.Columns}
		if s.Rows != nil {
			os.Rows = make([][]oracleCell, len(s.Rows))
		}
		for j, row := range s.Rows {
			if row == nil {
				continue
			}
			os.Rows[j] = make([]oracleCell, len(row))
			for k, c := range row {
				os.Rows[j][k] = oracleCell(c)
			}
		}
		o.Series[i] = os
	}
	return o
}

// oracleWriteJSON is WriteJSON as json.MarshalIndent wrote it.
func oracleWriteJSON(t testing.TB, r *Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(oracleOf(r), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// checkAgainstOracle compares WriteJSON, Cell.MarshalJSON and
// Metrics.MarshalJSON with the reflection encoder's bytes, and the
// compact encoding of the whole result too (the CLI's multi-experiment
// array and sweep rows reach the MarshalJSON methods that way).
func checkAgainstOracle(t testing.TB, r *Result) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if want := oracleWriteJSON(t, r); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteJSON differs from json.MarshalIndent:\ngot  %q\nwant %q", buf.Bytes(), want)
	}
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(oracleOf(r))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compact encoding differs from json.Marshal:\ngot  %q\nwant %q", got, want)
	}
	for _, s := range r.Series {
		if s == nil {
			continue
		}
		for _, row := range s.Rows {
			for _, c := range row {
				got, err := c.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				want, _ := oracleCell(c).MarshalJSON()
				if !bytes.Equal(got, want) {
					t.Fatalf("Cell.MarshalJSON = %q, encoding/json wrote %q", got, want)
				}
			}
		}
	}
	gotM, _ := r.Metrics.MarshalJSON()
	wantM, _ := oracleMetrics(r.Metrics).MarshalJSON()
	if !bytes.Equal(gotM, wantM) {
		t.Fatalf("Metrics.MarshalJSON = %q, encoding/json wrote %q", gotM, wantM)
	}
}

// edgeResult holds every value class the encoding has a rule for.
func edgeResult() *Result {
	r := &Result{ID: "E<1>", Title: "a&b", Seed: math.MaxUint64}
	s := r.AddSeries("edge", Column{Name: "x", Unit: "u", CI: true}, Column{Name: "y"})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, 1e-7, 1e-6, 1e21, 1e20, -1e21, 123456789.125, 0.1 + 0.2, math.MaxFloat64} {
		s.AddCells(FloatCI(v, v, 3).WithUnit("m/s"), Int(math.MinInt64))
	}
	s.AddCells(String("tab\tquote\"back\\slash\x00\x1f\x7f"), Bool(false))
	s.AddCells(String("line"+string(rune(0x2028))+"para"+string(rune(0x2029))), Bool(true).WithN(-2))
	s.AddCells(String("bad\xffutf8\xe2\x80"), String("héllo, 世界"))
	r.AddSeries("", Cols("empty")...)
	r.Series = append(r.Series, &Series{Columns: []Column{}, Rows: [][]Cell{nil, {}}})
	r.Series = append(r.Series, nil)
	r.SetMetric("nan", math.NaN())
	r.SetMetric("<inf>", math.Inf(1))
	r.SetMetric("neg", math.Inf(-1))
	r.SetMetric("tiny", 1e-9)
	r.SetMetric("bad\xff", -0.5)
	r.Notes = []string{"", "note & <tag>"}
	return r
}

func TestWriteJSONMatchesReflection(t *testing.T) {
	big := &Result{ID: "density", Title: "Algorithm 1 encounter-rate density estimation", Seed: 7}
	s := big.AddSeries("estimates", Cols("agent", "estimate")...)
	for i := 0; i < 2000; i++ {
		s.AddRow(i, float64(i%37)/400)
	}
	big.SetMetric("rounds", 400)
	big.SetMetric("mean_estimate", 0.19073)
	for name, r := range map[string]*Result{
		"sample":  sampleResult(),
		"edge":    edgeResult(),
		"density": big,
		"bare":    {ID: ""},
		"empty":   {ID: "x", Series: []*Series{}, Metrics: Metrics{}, Notes: []string{}},
	} {
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, r) })
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil || buf.String() != "null\n" {
		t.Errorf("WriteJSON(nil) = %q, %v; want \"null\\n\"", buf.String(), err)
	}
}

func TestWriteJSONRejectsUnknownKind(t *testing.T) {
	r := &Result{ID: "E"}
	r.AddSeries("", Cols("x")...).AddCells(Cell{Kind: 9})
	if err := WriteJSON(&bytes.Buffer{}, r); err == nil {
		t.Error("a cell of unknown kind encoded")
	}
	if _, err := (Cell{Kind: 9}).MarshalJSON(); err == nil {
		t.Error("Cell.MarshalJSON accepted an unknown kind")
	}
}

// FuzzWriteJSON compares the appender with the reflection oracle over
// results built from fuzzed strings, floats and shape bits.
func FuzzWriteJSON(f *testing.F) {
	f.Add("id", "text", 0.5, 0.25, 3, uint8(0))
	f.Add("<>&", "a&b", math.NaN(), math.Inf(1), 0, uint8(1))
	f.Add("x", "y", math.Inf(-1), math.Copysign(0, -1), -4, uint8(2))
	f.Add("line"+string(rune(0x2028)), "para"+string(rune(0x2029)), 5e-324, 1e-7, 1, uint8(3))
	f.Add("\xff\xfe", "ok\x80", 1e21, 1e-6, 2, uint8(4))
	f.Add("", "", 1e20, -1e21, 0, uint8(8))
	f.Add("nil rows", "empty rows", 0.1, 0.2, 0, uint8(16))
	f.Add("nil columns", "empty columns", 1.0, 2.0, 0, uint8(32))
	f.Fuzz(func(t *testing.T, id, text string, v, ci float64, n int, shape uint8) {
		r := &Result{ID: id, Title: text, Claim: id + text, Seed: uint64(n), Quick: shape&1 != 0}
		cols := []Column{{Name: text, Unit: id, CI: shape&2 != 0}, {Name: id}}
		cell := Float(v)
		switch shape >> 6 {
		case 1:
			cell = Int(int64(n))
		case 2:
			cell = String(text)
		case 3:
			cell = Bool(shape&4 != 0)
		}
		if shape&2 != 0 {
			cell.CI95, cell.HasCI = ci, true
		}
		cell.N, cell.Unit = n, text
		rows := [][]Cell{{cell, Float(ci)}, {Int(int64(n)), String(id)}}
		switch {
		case shape&16 != 0 && shape&8 != 0:
			rows = [][]Cell{}
		case shape&16 != 0:
			rows = nil
		case shape&8 != 0:
			rows = append(rows, nil, []Cell{})
		}
		switch {
		case shape&32 != 0 && shape&8 != 0:
			cols = []Column{}
		case shape&32 != 0:
			cols = nil
		}
		r.Series = []*Series{{Name: text, Columns: cols, Rows: rows}}
		if shape&4 != 0 {
			r.SetMetric(text, v)
			r.SetMetric(id, ci)
			r.Notes = []string{text, id}
		}
		checkAgainstOracle(t, r)
	})
}
