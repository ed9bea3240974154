package vexsmt

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"vexsmt/internal/stats"
)

// FuzzCellCodecMatchesJSON holds the wire codec to encoding/json from both
// sides. For arbitrary bytes, each fast parser (cell line, ack, status,
// disk payload, submit body) that accepts must decode what json.Unmarshal
// decodes into the same type, and each exported parser that falls back
// to encoding/json must accept and reject exactly what encoding/json
// does. For records built from the fuzz inputs, each
// appender must write json.Marshal's bytes (or fail where it fails), take
// its fast path whenever the record's strings need no escaping, and its
// output must come back through the fast parser unchanged.
func FuzzCellCodecMatchesJSON(f *testing.F) {
	const seed20 = 18446744073709551557 // a 20-digit cell seed
	cell := CellResult{CellSpec: CellSpec{Mix: "mmhh", Technique: "CCSI AS", Threads: 4, Predictor: "tage"},
		Seed: seed20, IPC: 2.718281828459045, Cached: true,
		Counters: Counters{Cycles: 1 << 40, Instrs: 12345, Ops: math.MaxInt64, Branches: 7, BranchMispredicts: 1}}
	line, _ := AppendCellLine(nil, &cell)
	ack := AppendAckLine(nil, &PlanAck{Cells: 144, Meta: RunMeta{SchemaVersion: 1, Seed: seed20, Scale: 4000,
		Parallelism: 2, Techniques: strings.Join(Techniques(), ",")}})
	status := AppendStatusLine(nil, &PlanStatus{Cells: 144, Completed: 143, Error: "x: boom", Status: "failed"})
	run := encodeRun(&stats.Run{Cycles: 9, Ops: -3, Branches: math.MinInt64})
	submit := AppendPlanSubmit(nil, &PlanSubmit{Cells: []CellSpec{cell.CellSpec,
		{Technique: "SMT", Threads: 2, Workload: "fir@0123abcd"}}, Scale: -4000, Seed: seed20, Cache: "off"})
	nullCells := AppendPlanSubmit(nil, &PlanSubmit{Scale: 20000, Seed: 1})
	for _, data := range [][]byte{line, ack, status, run, bytes.TrimSpace(line), bytes.TrimSpace(ack), bytes.TrimSpace(status),
		submit, nullCells,
		[]byte(`{"mix":"mmhh","technique":"SMT","threads":2,"seed":7,"ipc":1.5}`),
		[]byte(`{"MIX":"mmhh","technique":"SMT","threads":2,"seed":7,"ipc":1.5,"counters":{}}`),
		[]byte(`{"status":"done"}`),
		[]byte(`{"cells":[{"mix":"llll","technique":"SMT","threads":2}],"SCALE":400,"seed":1}`),
		[]byte(`{"cells":[],"scale":400,"seed":1,"seed":2}`),
		append(bytes.Clone(nullCells), ` {"cells":[]}`...),
	} {
		f.Add(data, "llhh", "SMT", 1.5, int64(400), uint64(seed20), uint(0))
	}
	for _, ipc := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e21, 1e20, 1e-6, 1e-7, math.Copysign(0, -1)} {
		f.Add([]byte(nil), "mmhh", "CCSI AS", ipc, int64(-1), uint64(0), uint(15))
	}
	f.Add([]byte(nil), "<a&b>", "é\u2028\x00\"\\", 1.0, int64(math.MinInt64), uint64(math.MaxUint64), uint(63))
	f.Add([]byte(nil), "", "", 0.0, int64(math.MaxInt64), uint64(1), uint(48))

	f.Fuzz(func(t *testing.T, data []byte, s1, s2 string, ipc float64, n int64, seed uint64, flags uint) {
		checkParsers(t, data)

		c := CellResult{CellSpec: CellSpec{Mix: s1, Technique: s2, Threads: int(n)},
			Seed: seed, IPC: ipc, Cached: flags&1 != 0}
		if flags&2 != 0 {
			c.Predictor = s2
		}
		if flags&4 != 0 {
			c.Workload = s1 + "@" + s2
		}
		if flags&8 != 0 {
			c.Err = s1
		}
		fillInts(&c.Counters, n, flags)
		checkCellLine(t, &c)

		checkLine(t, "status", AppendStatusLine, parseStatus, &PlanStatus{Cells: int(n), Completed: int(seed),
			Error: s1, Status: s2}, plain(s1) && plain(s2))
		meta := RunMeta{SchemaVersion: int(seed), Seed: seed, Scale: -n, Parallelism: int(flags)}
		if flags&16 != 0 {
			meta.Techniques = s2
		}
		checkLine(t, "ack", AppendAckLine, parseAck, &PlanAck{Cells: int(n), Meta: meta}, plain(meta.Techniques))

		submit := PlanSubmit{Scale: n, Seed: seed}
		if flags&32 != 0 {
			submit.Cells = []CellSpec{c.CellSpec, {Mix: s2, Technique: s1}}
		} else if flags&64 != 0 {
			submit.Cells = []CellSpec{}
		}
		if flags&128 != 0 {
			submit.Cache = s1
		}
		want, err := json.Marshal(&submit)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendPlanSubmit([]byte("x"), &submit); string(got) != "x"+string(want) {
			t.Fatalf("submit:\n got %s\nwant x%s", got, want)
		}
		wantFast := plain(submit.Cache)
		for i := range submit.Cells {
			wantFast = wantFast && plainSpec(&submit.Cells[i])
		}
		if _, fast := appendSubmit(nil, &submit); fast != wantFast {
			t.Fatalf("submit %+v: fast path %v, want %v", submit, fast, wantFast)
		}
		if back, ok := ParsePlanSubmit(want); wantFast && (!ok || !reflect.DeepEqual(back, submit)) {
			t.Fatalf("submit %s: fast parse %v gave %+v, want %+v", want, ok, back, submit)
		}
		checkParsers(t, want)

		var r stats.Run
		fillInts(&r, n, flags)
		checkLine(t, "run", func(b []byte, r *stats.Run) []byte { return append(b, encodeRun(r)...) },
			func(b []byte) (stats.Run, bool) {
				var got stats.Run
				return got, parseRun(b, &got)
			}, &r, true)
	})
}

// fillInts sets every field of the all-int64 struct at v from n, in a
// pattern (n, 0, -n, n>>i) whose phase the flags pick, so records carry
// zero omitempty fields, negative and full-width values.
func fillInts(v any, n int64, flags uint) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		x := n
		switch (uint(i) + flags) % 4 {
		case 1:
			x = 0
		case 2:
			x = -n
		case 3:
			x = n >> uint(i)
		}
		rv.Field(i).SetInt(x)
	}
}

// checkCellLine holds AppendCellLine to json.Marshal and its output to the
// fast cell parser.
func checkCellLine(t *testing.T, c *CellResult) {
	t.Helper()
	want, jerr := json.Marshal(c)
	got, err := AppendCellLine([]byte("x"), c)
	if (err != nil) != (jerr != nil) {
		t.Fatalf("cell %+v: AppendCellLine error %v, json.Marshal %v", c, err, jerr)
	}
	if jerr == nil && string(got) != "x"+string(want)+"\n" {
		t.Fatalf("cell line:\n got %q\nwant %q", got, "x"+string(want)+"\n")
	}
	fast, ok := appendCell(nil, c)
	if wantFast := jerr == nil && plainSpec(&c.CellSpec) && plain(c.Err); ok != wantFast {
		t.Fatalf("cell %+v: fast path %v, want %v", c, ok, wantFast)
	}
	if !ok {
		return
	}
	back, ok := parseCell(fast)
	if !ok || back != *c {
		t.Fatalf("cell line %s: fast parse %v gave %+v, want %+v", fast, ok, back, *c)
	}
	checkParsers(t, fast)
}

// checkLine holds one appender to json.Marshal (plus the newline of a
// stream line) and, when it must take the fast path, its output to the
// fast parser.
func checkLine[T any](t *testing.T, what string, appendTo func([]byte, *T) []byte, parse func([]byte) (T, bool), v *T, fast bool) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got := appendTo([]byte("x"), v)
	if nl := bytes.HasSuffix(got, []byte("\n")); nl {
		want = append(want, '\n')
	}
	if string(got) != "x"+string(want) {
		t.Fatalf("%s:\n got %q\nwant %q", what, got, "x"+string(want))
	}
	if !fast {
		return
	}
	back, ok := parse(bytes.TrimSuffix(got[1:], []byte("\n")))
	if !ok || !reflect.DeepEqual(back, *v) {
		t.Fatalf("%s %s: fast parse %v gave %+v, want %+v", what, got[1:], ok, back, *v)
	}
	checkParsers(t, got[1:])
}

// checkParsers runs data through every parser: a fast parse that accepts
// must agree with json.Unmarshal into the same type, and each exported
// parser must return encoding/json's value and error.
func checkParsers(t *testing.T, data []byte) {
	t.Helper()
	if c, ok := parseCell(data); ok {
		l := StreamLine{CellResult: c, ErrMsg: c.Err}
		l.Err = ""
		matchJSON(t, "cell line", data, l)
	}
	if s, ok := parseStatus(data); ok {
		matchJSON(t, "status line", data, s)
		matchJSON(t, "status line", data, StreamLine{Status: s.Status, ErrMsg: s.Error})
	}
	if a, ok := parseAck(data); ok {
		matchJSON(t, "ack line", data, a)
	}
	var r stats.Run
	if parseRun(data, &r) {
		matchJSON(t, "run payload", data, r)
	}
	if s, ok := ParsePlanSubmit(data); ok {
		matchJSON(t, "plan submit", data, s)
	}

	l, err := ParseStreamLine(data)
	sameAsJSON(t, "ParseStreamLine", data, l, err)
	a, err := ParseAckLine(data)
	sameAsJSON(t, "ParseAckLine", data, a, err)
	r = stats.Run{Cycles: -1} // decodeRun must not leave a failed fast parse's fields behind
	err = decodeRun(data, &r)
	if err != nil {
		r = stats.Run{}
	}
	sameAsJSON(t, "decodeRun", data, r, err)
}

// matchJSON fails unless json.Unmarshal accepts data into a T and
// decodes want.
func matchJSON[T any](t *testing.T, what string, data []byte, want T) {
	t.Helper()
	var got T
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("%s %q: fast parse accepted, encoding/json refused: %v", what, data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: fast parse %+v, encoding/json %+v", what, data, want, got)
	}
}

// sameAsJSON fails unless (v, err) is what json.Unmarshal gives for data
// into a zero T (with v zero on an error).
func sameAsJSON[T any](t *testing.T, what string, data []byte, v T, err error) {
	t.Helper()
	var want T
	jerr := json.Unmarshal(data, &want)
	if fmt.Sprint(err) != fmt.Sprint(jerr) {
		t.Fatalf("%s %q: error %v, encoding/json %v", what, data, err, jerr)
	}
	if jerr == nil && !reflect.DeepEqual(v, want) {
		t.Fatalf("%s %q: %+v, encoding/json %+v", what, data, v, want)
	}
}

// TestRunPayloadWrittenByEncodingJSON: a cache entry holding
// json.Marshal's bytes for a run — every entry written before the codec
// existed — is served as a cache hit through the fast parse, and the
// codec writes the same bytes for the same run.
func TestRunPayloadWrittenByEncodingJSON(t *testing.T) {
	ctx := context.Background()
	cold, err := New(WithScale(20000), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cold.canon(CellSpec{Mix: "mmhh", Technique: "CCSI AS", Threads: 4, Predictor: "tage"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cold.simulate(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Branches == 0 {
		t.Fatal("tage run counted no branches; the payload would not cover every field")
	}
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeRun(r); !bytes.Equal(got, payload) {
		t.Fatalf("encodeRun:\n got %s\nwant %s", got, payload)
	}
	var back stats.Run
	if !parseRun(payload, &back) || back != *r {
		t.Fatalf("fast parse declined or changed json.Marshal's payload %s: %+v", payload, back)
	}

	store := newMapCache()
	store.m[CacheKey(RunMeta{SchemaVersion: SchemaVersion, Seed: 1, Scale: 20000}, spec)] = payload
	warm, err := New(WithScale(20000), WithSeed(1), WithCache(store))
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.RunCell(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := cold.cellResult(spec, r, true, nil); got != want || warm.SimulationsRun() != 0 {
		t.Fatalf("warm cell %+v after %d simulations, want %+v from the cache", got, warm.SimulationsRun(), want)
	}
}

// benchCell is a typical plan-stream cell: a 20-digit seed, a modeled
// predictor and full-width counters.
var benchCell = CellResult{
	CellSpec: CellSpec{Mix: "mmhh", Technique: "CCSI AS", Threads: 4, Predictor: "tage"},
	Seed:     15485863624212763329,
	IPC:      3.1287309644670048,
	Counters: Counters{Cycles: 98500, Instrs: 104211, Ops: 308178, IssueSlots: 1576000, EmptyCycles: 5123,
		MergedCycles: 61234, SplitInstrs: 4211, ICacheAccesses: 104211, ICacheMisses: 93,
		DCacheAccesses: 61120, DCacheMisses: 1804, FetchStallCycles: 3120, MemStallCycles: 21007,
		BranchStallCycles: 7712, MemPortStallCycles: 412, ContextSwitches: 12, Respawns: 3,
		Branches: 12034, BranchMispredicts: 611},
}

// reportPerCell adds the ns/cell metric (one cell per op) and allocs.
func reportPerCell(b *testing.B, body func()) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cell")
}

// BenchmarkCellLine times one plan-stream cell line through the codec
// (encode: AppendCellLine into a reused buffer, as the daemon writes it;
// decode: ParseStreamLine, as the coordinator reads it) against the
// encoding/json calls each replaced.
func BenchmarkCellLine(b *testing.B) {
	line, err := AppendCellLine(nil, &benchCell)
	if err != nil {
		b.Fatal(err)
	}
	line = bytes.TrimSpace(line)
	b.Run("encode/codec", func(b *testing.B) {
		var buf []byte
		reportPerCell(b, func() { buf, _ = AppendCellLine(buf[:0], &benchCell) })
	})
	b.Run("encode/json", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		reportPerCell(b, func() {
			buf.Reset()
			_ = enc.Encode(&benchCell)
		})
	})
	b.Run("decode/codec", func(b *testing.B) {
		reportPerCell(b, func() { _, _ = ParseStreamLine(line) })
	})
	b.Run("decode/json", func(b *testing.B) {
		reportPerCell(b, func() {
			var l StreamLine
			_ = json.Unmarshal(line, &l)
		})
	})
}

// BenchmarkPlanSubmit times reading one /v1/plans body as a daemon
// does: fast is a coordinator's one-cell submission through
// ParsePlanSubmit; fallback is the same plan with a space after the
// first colon, which the fast parse declines and encoding/json decodes.
func BenchmarkPlanSubmit(b *testing.B) {
	body := AppendPlanSubmit(nil, &PlanSubmit{Cells: []CellSpec{benchCell.CellSpec}, Scale: 4000, Seed: benchCell.Seed})
	spaced := bytes.Replace(body, []byte(":"), []byte(": "), 1)
	b.Run("fast", func(b *testing.B) {
		reportPerCell(b, func() {
			if _, ok := ParsePlanSubmit(body); !ok {
				b.Fatalf("fast parse declined %s", body)
			}
		})
	})
	b.Run("fallback", func(b *testing.B) {
		reportPerCell(b, func() {
			if _, ok := ParsePlanSubmit(spaced); ok {
				b.Fatalf("fast parse accepted %s", spaced)
			}
			var p PlanSubmit
			if err := json.NewDecoder(bytes.NewReader(spaced)).Decode(&p); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// BenchmarkRunPayload times one cell's disk-cache payload through the
// codec (encodeRun, decodeRun) against encoding/json.
func BenchmarkRunPayload(b *testing.B) {
	r := &stats.Run{}
	fillInts(r, 98500123, 0)
	payload := encodeRun(r)
	b.Run("encode/codec", func(b *testing.B) {
		reportPerCell(b, func() { _ = encodeRun(r) })
	})
	b.Run("encode/json", func(b *testing.B) {
		reportPerCell(b, func() { _, _ = json.Marshal(r) })
	})
	b.Run("decode/codec", func(b *testing.B) {
		var out stats.Run
		reportPerCell(b, func() { _ = decodeRun(payload, &out) })
	})
	b.Run("decode/json", func(b *testing.B) {
		reportPerCell(b, func() {
			var out stats.Run
			_ = json.Unmarshal(payload, &out)
		})
	})
}
