package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSubmitPlan posts arbitrary bytes to POST /v1/plans, the request
// decoder every plan submission passes through, with a request context
// that is already cancelled, so the plan is cancelled the moment it is
// admitted. The handler must never panic and must answer 200, 400 or
// 503. A 400 carries a JSON {"error":...} body. A 200 is an NDJSON
// stream whose first line is the ack and whose last line is the
// terminal status object.
func FuzzSubmitPlan(f *testing.F) {
	f.Add([]byte(`{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`))
	f.Add([]byte(`{"figures":["14"],"predictors":["bimodal","static"],"seed":0}`))
	f.Add([]byte(`{"figures":["all"],"parallelism":3,"cache":"off"}`))
	f.Add([]byte(`{"sweep":true,"scale":4000}`))
	f.Add([]byte(`{"workloads":["idct"]}`))
	f.Add([]byte(`{"figures":["14"],"scale":0}`))
	f.Add([]byte(`{"cache":"sideways"}`))
	f.Add([]byte(`not json`))

	// A large default scale keeps any cell a worker starts before it sees
	// the cancellation short.
	h := New(20000, 1, 2).Handler()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	f.Fuzz(func(t *testing.T, body []byte) {
		// Workers race the cancellation, so a cell can still start. Skip
		// bodies that would make such a cell long: a scale override below
		// 1000. The handler reads the first JSON value of the body, as
		// this decoder does.
		var probe struct {
			Scale *int64 `json:"scale"`
		}
		if json.NewDecoder(bytes.NewReader(body)).Decode(&probe) == nil && probe.Scale != nil && *probe.Scale < 1000 {
			t.Skip("scale override below 1000")
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/plans", bytes.NewReader(body)).WithContext(cancelled)
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusServiceUnavailable:
		case http.StatusBadRequest:
			var e struct {
				Error *string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil {
				t.Fatalf("400 body %q is not a JSON error (%v)", rec.Body.String(), err)
			}
		case http.StatusOK:
			lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
			if len(lines) < 2 {
				t.Fatalf("200 body %q: want an ack and a status line at least", rec.Body.String())
			}
			var a ack
			if err := json.Unmarshal([]byte(lines[0]), &a); err != nil || a.Meta.SchemaVersion == 0 {
				t.Fatalf("first line %q is not the ack (%v)", lines[0], err)
			}
			var end struct {
				Status    string `json:"status"`
				Completed *int   `json:"completed"`
				Cells     *int   `json:"cells"`
			}
			last := lines[len(lines)-1]
			if err := json.Unmarshal([]byte(last), &end); err != nil || end.Status == "" ||
				end.Completed == nil || end.Cells == nil || *end.Cells != a.Cells {
				t.Fatalf("last line %q is not the terminal status of a %d-cell plan (%v)", last, a.Cells, err)
			}
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.String())
		}
	})
}
