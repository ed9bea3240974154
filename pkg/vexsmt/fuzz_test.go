package vexsmt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeResults runs arbitrary bytes through DecodeResults, the
// decoder for results documents that arrive from outside the process:
// corrupt input must error, never panic, and any document it accepts must
// re-encode through EncodeResults and decode to an equal value.
func FuzzDecodeResults(f *testing.F) {
	rs := &ResultSet{
		Meta: RunMeta{SchemaVersion: SchemaVersion, Seed: 1, Scale: 20000, Parallelism: 2,
			Techniques: strings.Join(Techniques(), ",")},
		Cells: []CellResult{
			{CellSpec: CellSpec{Mix: "llhh", Technique: "CCSI AS", Threads: 4}, Seed: 7, IPC: 2.25,
				Counters: Counters{Cycles: 400, Instrs: 900, Ops: 1800}},
			{CellSpec: CellSpec{Workload: "idct@" + strings.Repeat("ab", 32), Technique: "SMT", Threads: 2, Predictor: "tage"},
				Seed: 9, IPC: 1.5, Cached: true, Counters: Counters{Cycles: 10, Branches: 3, BranchMispredicts: 1}},
		},
	}
	var valid bytes.Buffer
	if err := EncodeResults(&valid, rs); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])                      // truncated document
	f.Add([]byte(`{"meta":{"schema_version":2},"cells":[]}`)) // foreign schema
	f.Add([]byte(`{"meta":{"schema_version":1},"cells":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := DecodeResults(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeResults(&buf, rs); err != nil {
			t.Fatalf("decoded document failed to re-encode: %v", err)
		}
		again, err := DecodeResults(&buf)
		if err != nil {
			t.Fatalf("re-encoded document failed to decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(rs, again) {
			t.Fatalf("round trip changed the document:\n%+v\n%+v", rs, again)
		}
	})
}
