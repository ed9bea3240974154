package vexsmt

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unsafe"

	"vexsmt/internal/stats"
)

// This file is the one definition of the bodies every serving hop
// carries: the disk-cache payload of a cell's run (stats.Run), the plan
// stream's lines (the ack, each CellResult, the terminal status) and the
// plan a coordinator submits.
//
// The encoders append exactly the bytes encoding/json writes for the
// same value — key order, omitempty, float format and HTML escaping
// included — so cache entries, peer-fill digests and exports do not
// depend on which path wrote them. A value they cannot write that way (a
// string needing any escape, a non-finite IPC) goes through
// encoding/json itself.
//
// The parsers accept only those canonical bytes. Anything else — other
// spacing or key order, escapes, non-ASCII, unknown or case-folded keys,
// numbers out of range for their field — is handed to the encoding/json
// call the hop has always made, so what a hop accepts or rejects, and
// what it decodes, does not depend on which path read the bytes.

// PlanAck is the first line of a plan stream (the reply to POST
// /v1/plans): the plan's cell count and the meta of the service running
// it.
type PlanAck struct {
	Cells int     `json:"cells"`
	Meta  RunMeta `json:"meta"`
}

// PlanStatus is the terminal line of a plan stream: "done", "failed"
// (Error names the first failed cell) or "cancelled", with the number of
// cells that completed out of the plan's Cells.
type PlanStatus struct {
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Error     string `json:"error"`
	Status    string `json:"status"`
}

// StreamLine is one plan-stream line after the ack, decoded as either
// shape. A cell line fills CellResult, except that its "error" lands in
// ErrMsg: the outer field shadows the embedded one (shallower depth wins
// in encoding/json). The terminal line sets Status and ErrMsg.
type StreamLine struct {
	CellResult
	Status string `json:"status"`
	ErrMsg string `json:"error"`
}

// PlanSubmit is the plan a coordinator posts to /v1/plans: explicit
// cells pinned to a seed and scale, optionally bypassing the daemon's
// cache ("off").
type PlanSubmit struct {
	Cells []CellSpec `json:"cells"`
	Scale int64      `json:"scale"`
	Seed  uint64     `json:"seed"`
	Cache string     `json:"cache,omitempty"`
}

// AppendAckLine appends a's plan-stream line, newline included.
func AppendAckLine(b []byte, a *PlanAck) []byte {
	if !plain(a.Meta.Techniques) {
		b, _ = appendJSONLine(b, a) // RunMeta has no value json.Marshal refuses
		return b
	}
	b = append(b, `{"cells":`...)
	b = strconv.AppendInt(b, int64(a.Cells), 10)
	b = append(b, `,"meta":{"schema_version":`...)
	b = strconv.AppendInt(b, int64(a.Meta.SchemaVersion), 10)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, a.Meta.Seed, 10)
	b = append(b, `,"scale":`...)
	b = strconv.AppendInt(b, a.Meta.Scale, 10)
	b = append(b, `,"parallelism":`...)
	b = strconv.AppendInt(b, int64(a.Meta.Parallelism), 10)
	if a.Meta.Techniques != "" {
		b = appendStr(append(b, `,"techniques":`...), a.Meta.Techniques)
	}
	return append(b, "}}\n"...)
}

// AppendCellLine appends c's plan-stream line, newline included. It
// fails only where encoding/json does: on a non-finite IPC.
func AppendCellLine(b []byte, c *CellResult) ([]byte, error) {
	if out, ok := appendCell(b, c); ok {
		return append(out, '\n'), nil
	}
	return appendJSONLine(b, c)
}

// AppendStatusLine appends s's plan-stream line, newline included.
func AppendStatusLine(b []byte, s *PlanStatus) []byte {
	if !plain(s.Error) || !plain(s.Status) {
		b, _ = appendJSONLine(b, s) // PlanStatus has no value json.Marshal refuses
		return b
	}
	b = append(b, `{"cells":`...)
	b = strconv.AppendInt(b, int64(s.Cells), 10)
	b = append(b, `,"completed":`...)
	b = strconv.AppendInt(b, int64(s.Completed), 10)
	b = appendStr(append(b, `,"error":`...), s.Error)
	b = appendStr(append(b, `,"status":`...), s.Status)
	return append(b, "}\n"...)
}

// AppendPlanSubmit appends p's request body (no newline, as json.Marshal
// writes it).
func AppendPlanSubmit(b []byte, p *PlanSubmit) []byte {
	if out, ok := appendSubmit(b, p); ok {
		return out
	}
	j, _ := json.Marshal(p) // PlanSubmit has no value json.Marshal refuses
	return append(b, j...)
}

// ParseAckLine decodes a plan stream's ack line.
func ParseAckLine(line []byte) (PlanAck, error) {
	if a, ok := parseAck(line); ok {
		return a, nil
	}
	var a PlanAck
	err := json.Unmarshal(line, &a)
	return a, err
}

func parseAck(line []byte) (PlanAck, bool) {
	var a PlanAck
	p := parser{b: line}
	p.lit(`{"cells":`)
	a.Cells = p.int()
	p.lit(`,"meta":{"schema_version":`)
	a.Meta.SchemaVersion = p.int()
	p.lit(`,"seed":`)
	a.Meta.Seed = p.uint(math.MaxUint64)
	p.lit(`,"scale":`)
	a.Meta.Scale = p.int64()
	p.lit(`,"parallelism":`)
	a.Meta.Parallelism = p.int()
	if p.opt(`,"techniques":`) {
		a.Meta.Techniques = p.nonEmptyStr()
	}
	p.lit("}}")
	return a, p.done()
}

// ParsePlanSubmit decodes a /v1/plans body written by AppendPlanSubmit.
// It reports false for any other bytes, including every body only
// encoding/json writes; the caller then decodes them with encoding/json,
// so what a daemon accepts, and what it decodes, does not depend on
// which path read the body.
func ParsePlanSubmit(body []byte) (PlanSubmit, bool) {
	var s PlanSubmit
	p := parser{b: body}
	p.lit(`{"cells":`)
	if !p.opt("null") {
		p.lit("[")
		s.Cells = []CellSpec{}
		for !p.bad && !p.opt("]") {
			if len(s.Cells) > 0 {
				p.lit(",")
			}
			var c CellSpec
			p.lit("{")
			p.specFields(&c)
			p.lit("}")
			s.Cells = append(s.Cells, c)
		}
	}
	p.lit(`,"scale":`)
	s.Scale = p.int64()
	p.lit(`,"seed":`)
	s.Seed = p.uint(math.MaxUint64)
	if p.opt(`,"cache":`) {
		s.Cache = p.nonEmptyStr()
	}
	p.lit("}")
	return s, p.done()
}

// ParseStreamLine decodes one plan-stream line after the ack: a cell or
// the terminal status.
func ParseStreamLine(line []byte) (StreamLine, error) {
	if c, ok := parseCell(line); ok {
		l := StreamLine{CellResult: c, ErrMsg: c.Err}
		l.Err = ""
		return l, nil
	}
	if s, ok := parseStatus(line); ok {
		return StreamLine{Status: s.Status, ErrMsg: s.Error}, nil
	}
	var l StreamLine // escapes to json.Unmarshal; the fast paths above do not
	err := json.Unmarshal(line, &l)
	return l, err
}

// encodeRun is the disk-cache payload of one cell's run: json.Marshal's
// bytes for r.
func encodeRun(r *stats.Run) []byte {
	return appendInts(make([]byte, 0, 512), unsafe.Pointer(r), runFields)
}

// decodeRun parses a disk-cache payload into r.
func decodeRun(b []byte, r *stats.Run) error {
	if parseRun(b, r) {
		return nil
	}
	*r = stats.Run{}
	return json.Unmarshal(b, r)
}

func parseRun(b []byte, r *stats.Run) bool {
	p := parser{b: b}
	p.ints(unsafe.Pointer(r), runFields)
	return p.done()
}

// appendJSONLine appends encoding/json's line for v: what json.Encoder
// writes, which is json.Marshal's bytes and a newline.
func appendJSONLine(b []byte, v any) ([]byte, error) {
	j, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(append(b, j...), '\n'), nil
}

// appendCell appends c's line without the newline, or reports false
// where only encoding/json can write it.
func appendCell(b []byte, c *CellResult) ([]byte, bool) {
	if !plainSpec(&c.CellSpec) || !plain(c.Err) || math.IsNaN(c.IPC) || math.IsInf(c.IPC, 0) {
		return b, false
	}
	b = appendSpecFields(append(b, '{'), &c.CellSpec)
	b = strconv.AppendUint(append(b, `,"seed":`...), c.Seed, 10)
	b = appendFloat(append(b, `,"ipc":`...), c.IPC)
	b = appendInts(append(b, `,"counters":`...), unsafe.Pointer(&c.Counters), counterFields)
	if c.Cached {
		b = append(b, `,"cached":true`...)
	}
	if c.Err != "" {
		b = appendStr(append(b, `,"error":`...), c.Err)
	}
	return append(b, '}'), true
}

// appendSubmit appends p's body, or reports false where only
// encoding/json can write it (what it appended by then is garbage).
func appendSubmit(b []byte, p *PlanSubmit) ([]byte, bool) {
	if !plain(p.Cache) {
		return b, false
	}
	b = append(b, `{"cells":`...)
	if p.Cells == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Cells {
			if !plainSpec(&p.Cells[i]) {
				return b, false
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendSpecFields(append(b, '{'), &p.Cells[i]), '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"scale":`...), p.Scale, 10)
	b = strconv.AppendUint(append(b, `,"seed":`...), p.Seed, 10)
	if p.Cache != "" {
		b = appendStr(append(b, `,"cache":`...), p.Cache)
	}
	return append(b, '}'), true
}

// appendSpecFields appends c's members without the enclosing braces:
// CellResult inlines them ahead of its own.
func appendSpecFields(b []byte, c *CellSpec) []byte {
	b = appendStr(append(b, `"mix":`...), c.Mix)
	b = appendStr(append(b, `,"technique":`...), c.Technique)
	b = strconv.AppendInt(append(b, `,"threads":`...), int64(c.Threads), 10)
	if c.Predictor != "" {
		b = appendStr(append(b, `,"predictor":`...), c.Predictor)
	}
	if c.Workload != "" {
		b = appendStr(append(b, `,"workload":`...), c.Workload)
	}
	return b
}

func plainSpec(c *CellSpec) bool {
	return plain(c.Mix) && plain(c.Technique) && plain(c.Predictor) && plain(c.Workload)
}

func parseCell(line []byte) (CellResult, bool) {
	var c CellResult
	p := parser{b: line}
	p.lit("{")
	p.specFields(&c.CellSpec)
	p.lit(`,"seed":`)
	c.Seed = p.uint(math.MaxUint64)
	p.lit(`,"ipc":`)
	c.IPC = p.float()
	p.lit(`,"counters":`)
	p.ints(unsafe.Pointer(&c.Counters), counterFields)
	c.Cached = p.opt(`,"cached":true`)
	if p.opt(`,"error":`) {
		c.Err = p.nonEmptyStr()
	}
	p.lit("}")
	return c, p.done()
}

func parseStatus(line []byte) (PlanStatus, bool) {
	var s PlanStatus
	p := parser{b: line}
	p.lit(`{"cells":`)
	s.Cells = p.int()
	p.lit(`,"completed":`)
	s.Completed = p.int()
	p.lit(`,"error":`)
	s.Error = p.str()
	p.lit(`,"status":`)
	s.Status = p.str()
	p.lit("}")
	return s, p.done()
}

// plainByte marks the bytes encoding/json writes inside a string
// unescaped: printable ASCII (and DEL) except the quote, the backslash
// and the HTML-escaped <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// plain reports whether encoding/json writes s as its bytes in quotes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// appendStr appends a plain string in quotes.
func appendStr(b []byte, s string) []byte {
	return append(append(append(b, '"'), s...), '"')
}

// appendFloat appends f as encoding/json formats a float64: shortest
// round-trip digits, exponent form outside [1e-6, 1e21), and a
// two-digit negative exponent shortened ("1e-07" becomes "1e-7").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// intField is one member of a struct made only of int64 fields
// (stats.Run, Counters), as encoding/json writes it: the quoted key and
// colon, the field's offset, and whether a zero value is omitted.
type intField struct {
	key       string
	off       uintptr
	omitEmpty bool
}

var (
	runFields     = intFields(reflect.TypeFor[stats.Run]())
	counterFields = intFields(reflect.TypeFor[Counters]())
)

// intFields derives t's members in declaration order, keyed by json tag
// or field name. It panics on a field that is not an exported int64,
// which appendInts and parser.ints could not handle.
func intFields(t reflect.Type) []intField {
	fields := make([]intField, t.NumField())
	for i := range fields {
		f := t.Field(i)
		if f.Type.Kind() != reflect.Int64 || !f.IsExported() {
			panic("vexsmt: " + t.String() + "." + f.Name + " is not an exported int64")
		}
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		fields[i] = intField{key: `"` + name + `":`, off: f.Offset, omitEmpty: opts == "omitempty"}
	}
	return fields
}

// appendInts appends the struct at v, laid out as fields.
func appendInts(b []byte, v unsafe.Pointer, fields []intField) []byte {
	sep := byte('{')
	for _, f := range fields {
		n := *(*int64)(unsafe.Add(v, f.off))
		if f.omitEmpty && n == 0 {
			continue
		}
		b = strconv.AppendInt(append(append(b, sep), f.key...), n, 10)
		sep = ','
	}
	if sep == '{' {
		b = append(b, '{')
	}
	return append(b, '}')
}

// parser reads canonical bytes front to back. Each step that finds
// anything but the expected canonical form marks the parse bad, after
// which every step is a no-op; done reports whether the whole input
// parsed.
type parser struct {
	b   []byte
	i   int
	bad bool
}

func (p *parser) done() bool { return !p.bad && p.i == len(p.b) }

// opt consumes s if the input continues with it.
func (p *parser) opt(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// lit consumes s, which must come next.
func (p *parser) lit(s string) {
	if !p.opt(s) {
		p.bad = true
	}
}

// str reads a quoted plain string.
func (p *parser) str() string {
	p.lit(`"`)
	start := p.i
	for !p.bad && p.i < len(p.b) && plainByte[p.b[p.i]] {
		p.i++
	}
	s := p.b[start:p.i]
	p.lit(`"`)
	if p.bad {
		return ""
	}
	return string(s)
}

// nonEmptyStr reads the string of an omitempty member, which the
// encoder writes only when it is not empty.
func (p *parser) nonEmptyStr() string {
	s := p.str()
	if s == "" {
		p.bad = true
	}
	return s
}

// uint reads a canonical unsigned integer no larger than max: digits
// without a sign or a leading zero.
func (p *parser) uint(max uint64) uint64 {
	if p.bad {
		return 0
	}
	start := p.i
	var v uint64
	for ; p.i < len(p.b) && isDigit(p.b[p.i]); p.i++ {
		d := uint64(p.b[p.i] - '0')
		// Nineteen digits always fit; a twentieth may not.
		if p.i-start >= 19 && v > (math.MaxUint64-d)/10 {
			p.bad = true
			return 0
		}
		v = v*10 + d
	}
	if p.i == start || p.b[start] == '0' && p.i-start > 1 || v > max {
		p.bad = true
	}
	return v
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// int64 reads a canonical signed integer ("-0" is not canonical).
func (p *parser) int64() int64 {
	if p.opt("-") {
		v := p.uint(1 << 63)
		if v == 0 {
			p.bad = true
		}
		return int64(-v) // -(1<<63) wraps to math.MinInt64, as wanted
	}
	return int64(p.uint(math.MaxInt64))
}

// int reads a canonical integer that fits an int.
func (p *parser) int() int {
	v := p.int64()
	if int64(int(v)) != v {
		p.bad = true
	}
	return int(v)
}

// float reads a number that appendFloat writes exactly as it appears.
func (p *parser) float() float64 {
	if p.bad {
		return 0
	}
	start := p.i
	for p.i < len(p.b) && (isDigit(p.b[p.i]) || strings.IndexByte("-+.eE", p.b[p.i]) >= 0) {
		p.i++
	}
	tok := p.b[start:p.i]
	f, err := strconv.ParseFloat(string(tok), 64)
	var canon [32]byte
	if err != nil || string(appendFloat(canon[:0], f)) != string(tok) {
		p.bad = true
	}
	return f
}

// specFields reads a CellSpec's members (see appendSpecFields).
func (p *parser) specFields(c *CellSpec) {
	p.lit(`"mix":`)
	c.Mix = p.str()
	p.lit(`,"technique":`)
	c.Technique = p.str()
	p.lit(`,"threads":`)
	c.Threads = p.int()
	if p.opt(`,"predictor":`) {
		c.Predictor = p.nonEmptyStr()
	}
	if p.opt(`,"workload":`) {
		c.Workload = p.nonEmptyStr()
	}
}

// ints reads the struct at v, laid out as fields (see appendInts).
func (p *parser) ints(v unsafe.Pointer, fields []intField) {
	p.lit("{")
	first := true
	for _, f := range fields {
		at := p.i
		if !(first || p.opt(",")) || !p.opt(f.key) {
			p.i = at
			if !f.omitEmpty {
				p.bad = true
			}
			continue
		}
		n := p.int64()
		if f.omitEmpty && n == 0 {
			p.bad = true
		}
		*(*int64)(unsafe.Add(v, f.off)) = n
		first = false
	}
	p.lit("}")
}
