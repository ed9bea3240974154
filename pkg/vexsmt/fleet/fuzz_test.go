package fleet_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"vexsmt/pkg/vexsmt/fleet"
)

// FuzzRegisterMember posts arbitrary bytes to POST /v1/fleet/register, the
// handler every daemon's heartbeat reaches: it must answer 200 or 400,
// never panic, and a member it accepts must show up under its ID in
// GET /v1/fleet/members.
func FuzzRegisterMember(f *testing.F) {
	f.Add([]byte(`{"id":"a","url":"http://127.0.0.1:8080","capacity":4,"cache_enabled":true}`))
	f.Add([]byte(`{"id":"b","url":"http://b:1","workloads":"idct@00","cache":{"hits":3},"cache_size":{"entries":1}}`))
	f.Add([]byte(`{"id":"","url":"http://a:1"}`))
	f.Add([]byte(`{"id":"a","url":"not a url"}`))
	f.Add([]byte(`{"id":"a","url":"http://a:1"} trailing`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, body []byte) {
		h := fleet.NewRegistry().Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/register", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.String())
		}
		// The handler reads the first JSON value of the body, as the
		// decoder below does.
		var m fleet.Member
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&m); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/fleet/members", nil))
		var listing struct {
			Members []fleet.Member `json:"members"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
			t.Fatalf("members listing %q: %v", rec.Body.String(), err)
		}
		for _, got := range listing.Members {
			if got.ID == m.ID {
				return
			}
		}
		t.Fatalf("registered %q, but the listing is %+v", m.ID, listing.Members)
	})
}
