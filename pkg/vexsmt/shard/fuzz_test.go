package shard

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vexsmt/pkg/vexsmt"
)

// FuzzDecodeResultStream runs arbitrary bytes through DecodeResultStream,
// the decoder every NDJSON results stream from a daemon passes through:
// corrupt input must error, never panic, and any stream it accepts must
// re-encode — each cell as one line, then the terminal status line if
// there was one — and decode to the same cells, status and error.
func FuzzDecodeResultStream(f *testing.F) {
	f.Add([]byte(`{"mix":"llhh","technique":"CCSI AS","threads":4,"seed":7,"ipc":2.25,"counters":{"cycles":400}}` + "\n" +
		`{"mix":"mmhh","technique":"SMT","threads":2,"predictor":"tage","seed":9,"ipc":1.5,"cached":true}` + "\n" +
		`{"status":"done"}` + "\n"))
	f.Add([]byte(`{"mix":"llll","technique":"SMT","threads":2,"error":"boom"}` + "\n" + `{"status":"failed","error":"boom"}` + "\n"))
	f.Add([]byte(`{"mix":"llll","technique":"SMT","threads":2}` + "\r\n\n")) // no terminal line
	f.Add([]byte(`{"mix":"llll","techni`))                                   // torn mid-line

	f.Fuzz(func(t *testing.T, data []byte) {
		// Re-encoding can triple a line (invalid UTF-8 becomes U+FFFD), so
		// an input near the 1 MiB line cap could fail to re-read through
		// no fault of the decoder.
		if len(data) > 256<<10 {
			return
		}
		decode := func(b []byte) ([]vexsmt.CellResult, string, string, error) {
			var cells []vexsmt.CellResult
			status, errMsg, err := DecodeResultStream(bytes.NewReader(b), func(c vexsmt.CellResult) {
				cells = append(cells, c)
			})
			return cells, status, errMsg, err
		}
		cells, status, errMsg, err := decode(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, c := range cells {
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatalf("decoded cell failed to re-encode: %v", err)
			}
			buf.Write(append(line, '\n'))
		}
		if status != "" {
			line, err := json.Marshal(map[string]string{"status": status, "error": errMsg})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		cells2, status2, errMsg2, err := decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(cells, cells2) || status != status2 || errMsg != errMsg2 {
			t.Fatalf("round trip changed the stream:\n%+v %q %q\n%+v %q %q\n%s",
				cells, status, errMsg, cells2, status2, errMsg2, strings.TrimSpace(buf.String()))
		}
	})
}
