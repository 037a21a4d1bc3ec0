package results

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// This file is the JSON renderer of the results model. The encoding is
// schema-stable (locked by golden files in internal/expfmt): cells are
// objects keyed by kind ("v", "int", "str", "bool") with optional
// "ci95", "n", and "unit" annotations, and non-finite floats are
// encoded as the strings "NaN", "+Inf", and "-Inf" so a Result always
// serializes — encoding/json rejects raw non-finite numbers.
//
// One appender writes the model directly, in two layouts: WriteJSON's
// indented one and the compact one the MarshalJSON methods return.
// Each is byte for byte what encoding/json writes for the same values
// (json.MarshalIndent(r, "", "  ") and json.Marshal over per-cell
// objects), without reflection or a json.Marshal call per cell; that
// reflection encoder is the oracle the package's tests and
// FuzzWriteJSON compare the appender against.

// appender builds one JSON document in b.
type appender struct {
	b []byte
	// w, when set, takes the document in pieces: spill hands it b
	// whenever b passes flushSize.
	w io.Writer
	// indent selects WriteJSON's layout: a newline and two spaces per
	// level before every member, and a space after each colon. Empty
	// arrays stay "[]", as encoding/json's indenter leaves them.
	indent bool
	depth  int
	err    error // a cell of unknown kind, or w's error
}

// flushSize is how much WriteJSON buffers before writing, so a large
// result is never held as one document-sized buffer.
const flushSize = 64 << 10

// spill hands the buffered bytes to w once they pass flushSize.
func (e *appender) spill() {
	if e.w != nil && len(e.b) >= flushSize && e.err == nil {
		_, e.err = e.w.Write(e.b)
		e.b = e.b[:0]
	}
}

// open starts an object or array that has at least one member.
func (e *appender) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
}

// close ends the object or array open started.
func (e *appender) close(c byte) {
	e.depth--
	e.newline()
	e.b = append(e.b, c)
}

// next starts the i-th member of the innermost open object or array.
func (e *appender) next(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
	e.newline()
}

// newlineIndent is a newline and the indentation of the model's
// deepest member: a cell's keys, six levels in.
const newlineIndent = "\n            "

func (e *appender) newline() {
	if e.indent {
		e.b = append(e.b, newlineIndent[:1+2*e.depth]...)
	}
}

// key starts the i-th member of the innermost open object with the
// literal key k, which needs no escaping.
func (e *appender) key(i int, k string) {
	e.next(i)
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, '"')
	e.colon()
}

func (e *appender) colon() {
	e.b = append(e.b, ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

// openArray starts an array of n elements and reports whether the
// caller writes them: a nil slice is null and an empty one [], as
// encoding/json writes them.
func (e *appender) openArray(isNil bool, n int) bool {
	switch {
	case isNil:
		e.b = append(e.b, "null"...)
		return false
	case n == 0:
		e.b = append(e.b, "[]"...)
		return false
	}
	e.open('[')
	return true
}

// result writes r with Result's field order and omitempty rules.
func (e *appender) result(r *Result) {
	if r == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('{')
	e.key(0, "id")
	e.b = appendString(e.b, r.ID)
	i := 1
	if r.Title != "" {
		e.key(i, "title")
		e.b = appendString(e.b, r.Title)
		i++
	}
	if r.Claim != "" {
		e.key(i, "claim")
		e.b = appendString(e.b, r.Claim)
		i++
	}
	e.key(i, "seed")
	e.b = strconv.AppendUint(e.b, r.Seed, 10)
	i++
	if r.Quick {
		e.key(i, "quick")
		e.b = append(e.b, "true"...)
		i++
	}
	if len(r.Series) > 0 {
		e.key(i, "series")
		e.open('[')
		for j, s := range r.Series {
			e.next(j)
			e.series(s)
		}
		e.close(']')
		i++
	}
	if len(r.Metrics) > 0 {
		e.key(i, "metrics")
		e.metrics(r.Metrics)
		i++
	}
	if len(r.Notes) > 0 {
		e.key(i, "notes")
		e.open('[')
		for j, note := range r.Notes {
			e.next(j)
			e.b = appendString(e.b, note)
		}
		e.close(']')
	}
	e.close('}')
}

func (e *appender) series(s *Series) {
	if s == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('{')
	i := 0
	if s.Name != "" {
		e.key(i, "name")
		e.b = appendString(e.b, s.Name)
		i++
	}
	e.key(i, "columns")
	if e.openArray(s.Columns == nil, len(s.Columns)) {
		for j, c := range s.Columns {
			e.next(j)
			e.column(c)
		}
		e.close(']')
	}
	e.key(i+1, "rows")
	if e.openArray(s.Rows == nil, len(s.Rows)) {
		for j, row := range s.Rows {
			e.next(j)
			if e.openArray(row == nil, len(row)) {
				for k, c := range row {
					e.next(k)
					e.cell(c)
				}
				e.close(']')
			}
			e.spill()
		}
		e.close(']')
	}
	e.close('}')
}

func (e *appender) column(c Column) {
	e.open('{')
	e.key(0, "name")
	e.b = appendString(e.b, c.Name)
	i := 1
	if c.Unit != "" {
		e.key(i, "unit")
		e.b = appendString(e.b, c.Unit)
		i++
	}
	if c.CI {
		e.key(i, "ci")
		e.b = append(e.b, "true"...)
	}
	e.close('}')
}

// cell writes c in its kind's wire form: the value key, then ci95, n
// and unit when set.
func (e *appender) cell(c Cell) {
	e.open('{')
	switch c.Kind {
	case KindFloat:
		e.key(0, "v")
		e.b = appendFloat(e.b, c.Value)
	case KindInt:
		e.key(0, "int")
		e.b = strconv.AppendInt(e.b, c.Int, 10)
	case KindString:
		e.key(0, "str")
		e.b = appendString(e.b, c.Text)
	case KindBool:
		e.key(0, "bool")
		e.b = strconv.AppendBool(e.b, c.Bool)
	default:
		if e.err == nil {
			e.err = unknownKind(c.Kind)
		}
	}
	if c.HasCI {
		e.key(1, "ci95")
		e.b = appendFloat(e.b, c.CI95)
	}
	if c.N != 0 {
		e.key(1, "n")
		e.b = strconv.AppendInt(e.b, int64(c.N), 10)
	}
	if c.Unit != "" {
		e.key(1, "unit")
		e.b = appendString(e.b, c.Unit)
	}
	e.close('}')
}

// metrics writes m with sorted keys.
func (e *appender) metrics(m Metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		e.b = append(e.b, "{}"...)
		return
	}
	e.open('{')
	for i, name := range names {
		e.next(i)
		e.b = appendString(e.b, name)
		e.colon()
		e.b = appendFloat(e.b, m[name])
	}
	e.close('}')
}

// appendFloat appends v as encoding/json writes a float64 — the
// shortest round-tripping digits, in exponent form outside [1e-6,
// 1e21) — and NaN and ±Inf as the strings "NaN", "+Inf" and "-Inf".
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as in encoding/json.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json writes it with HTML
// escaping on (json.Marshal's default): <, > and & as \u003c, \u003e
// and \u0026, other control bytes escaped, U+2028 and U+2029 as
// \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == 0x2028 || r == 0x2029 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// jfloat is a float64 decoded from either JSON form WriteJSON writes.
type jfloat float64

// UnmarshalJSON accepts both the numeric and the string encodings.
func (f *jfloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = jfloat(math.NaN())
		case "+Inf", "Inf":
			*f = jfloat(math.Inf(1))
		case "-Inf":
			*f = jfloat(math.Inf(-1))
		default:
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("results: invalid float %q", s)
			}
			*f = jfloat(v)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jfloat(v)
	return nil
}

// MarshalJSON encodes the cell in its kind's wire form, compactly.
func (c Cell) MarshalJSON() ([]byte, error) {
	var e appender
	e.cell(c)
	return e.b, e.err
}

// UnmarshalJSON decodes a cell, inferring the kind from the value key
// present.
func (c *Cell) UnmarshalJSON(b []byte) error {
	var w struct {
		V    *jfloat `json:"v"`
		Int  *int64  `json:"int"`
		Str  *string `json:"str"`
		Bool *bool   `json:"bool"`
		CI95 *jfloat `json:"ci95"`
		N    int     `json:"n"`
		Unit string  `json:"unit"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*c = Cell{N: w.N, Unit: w.Unit}
	switch {
	case w.V != nil:
		c.Kind, c.Value = KindFloat, float64(*w.V)
	case w.Int != nil:
		c.Kind, c.Int = KindInt, *w.Int
	case w.Str != nil:
		c.Kind, c.Text = KindString, *w.Str
	case w.Bool != nil:
		c.Kind, c.Bool = KindBool, *w.Bool
	default:
		return fmt.Errorf("results: cell %s has no value key", b)
	}
	if w.CI95 != nil {
		c.CI95, c.HasCI = float64(*w.CI95), true
	}
	return nil
}

// MarshalJSON encodes the metrics compactly, with sorted keys and
// non-finite values as strings.
func (m Metrics) MarshalJSON() ([]byte, error) {
	var e appender
	e.metrics(m)
	return e.b, nil
}

// UnmarshalJSON decodes the metrics, accepting both encodings of
// non-finite values.
func (m *Metrics) UnmarshalJSON(b []byte) error {
	var raw map[string]jfloat
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	out := make(Metrics, len(raw))
	for name, v := range raw {
		out[name] = float64(v)
	}
	*m = out
	return nil
}

// WriteJSON writes r as indented JSON followed by a newline: exactly
// the bytes of json.MarshalIndent(r, "", "  ") and a newline. A result
// holding a cell of unknown kind is an error, and nothing is written.
func WriteJSON(w io.Writer, r *Result) error {
	if r != nil {
		for _, s := range r.Series {
			if s == nil {
				continue
			}
			for _, row := range s.Rows {
				for _, c := range row {
					if c.Kind > KindBool {
						return unknownKind(c.Kind)
					}
				}
			}
		}
	}
	e := appender{w: w, indent: true}
	e.result(r)
	e.b = append(e.b, '\n')
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.b)
	return err
}

func unknownKind(k Kind) error { return fmt.Errorf("results: cell has unknown kind %d", k) }

// ReadJSON decodes one Result from r's JSON form.
//
//antlint:testonly reference decoder for the WriteJSON round-trip tests
func ReadJSON(r io.Reader) (*Result, error) {
	dec := json.NewDecoder(r)
	var out Result
	if err := dec.Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
