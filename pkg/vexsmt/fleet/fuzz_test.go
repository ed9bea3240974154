package fleet_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// peerEntryCap is the documented 1 MiB bound on a peer cache response.
const peerEntryCap = 1 << 20

// FuzzPeerFetch serves a fuzzed peer answer — status, X-Vexsmt-Sha256
// header and body — to Fetcher.FetchContext, the one decoder of a peer
// cache fill. It must never panic, and it may return ok only for a 200
// answer whose body is at most 1 MiB and matches the digest in the
// header; such an answer must be accepted. sign replaces the fuzzed
// header by the body's true digest, and pad appends zero bytes, so the
// corpus reaches both sides of the size cap.
func FuzzPeerFetch(f *testing.F) {
	f.Add(uint16(200), true, "", []byte(`{"ipc":1.5}`), uint32(0))
	f.Add(uint16(200), false, "00", []byte(`{"ipc":1.5}`), uint32(0))
	f.Add(uint16(404), true, "", []byte("miss"), uint32(0))
	f.Add(uint16(200), true, "", []byte{}, uint32(peerEntryCap))
	f.Add(uint16(200), true, "", []byte{1}, uint32(peerEntryCap))
	f.Add(uint16(200), false, "\r\nX: y", []byte("x"), uint32(0))

	var (
		mu     sync.Mutex
		status int
		header string
		body   []byte
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("X-Vexsmt-Sha256", header)
		w.WriteHeader(status)
		w.Write(body)
	}))
	defer ts.Close()
	fetcher := fleet.NewFetcher("self", func() []fleet.Member {
		return []fleet.Member{{ID: "peer", URL: ts.URL, CacheEnabled: true}}
	})

	f.Fuzz(func(t *testing.T, code uint16, sign bool, digest string, payload []byte, pad uint32) {
		payload = append(payload, make([]byte, int(pad%(peerEntryCap+2)))...)
		sum := sha256.Sum256(payload)
		want := hex.EncodeToString(sum[:])
		if sign {
			digest = want
		}
		// Final statuses only: a 1xx is an interim answer the server
		// follows with its own 200.
		st := int(code)
		if st < 200 || st > 599 {
			st = 200 + st%400
		}
		mu.Lock()
		status, header, body = st, digest, payload
		mu.Unlock()

		got, ok := fetcher.FetchContext(context.Background(), "k")
		wellFormed := st == http.StatusOK && len(payload) <= peerEntryCap
		if !ok {
			if wellFormed && digest == want {
				t.Fatalf("status %d, %d-byte body with its own digest rejected", st, len(payload))
			}
			return
		}
		if !wellFormed || !bytes.Equal(got, payload) {
			t.Fatalf("accepted status %d with a %d-byte body (returned %d bytes)", st, len(payload), len(got))
		}
		// The wire may trim or fold the fuzzed header; what the client
		// saw must still be the body's digest.
		if strings.Trim(strings.NewReplacer("\r", " ", "\n", " ").Replace(digest), " \t") != want {
			t.Fatalf("accepted header %q for a body whose digest is %s", digest, want)
		}
	})
}
