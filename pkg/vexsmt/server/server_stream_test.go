package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
)

// postStream submits body and returns the response; the caller closes its
// body.
func postStream(t *testing.T, ctx context.Context, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/plans", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readLines reads an NDJSON body to its end.
func readLines(t *testing.T, r io.Reader) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

type ack struct {
	Cells int            `json:"cells"`
	Meta  vexsmt.RunMeta `json:"meta"`
}

func healthzRunning(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Running int `json:"running"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Running
}

// Everything that fails before the stream starts is a JSON error, never an
// NDJSON body.
func TestStreamSubmitRejectsBeforeStreaming(t *testing.T) {
	ts := testServer()
	defer ts.Close()
	for _, body := range []string{
		`{"figures":["nonsense"]}`,
		`{"cells":[{"mix":"zzzz","technique":"SMT","threads":2}]}`,
		`{"scale":-4}`,
		`not json`,
	} {
		resp := postStream(t, context.Background(), ts.URL, body)
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") != "application/json" ||
			!strings.Contains(string(msg), `"error"`) {
			t.Errorf("body %q: status %d, content type %q, body %q; want a 400 JSON error",
				body, resp.StatusCode, resp.Header.Get("Content-Type"), msg)
		}
	}

	slow := httptest.NewServer(New(50, 1, 1).Handler())
	defer slow.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < maxRunningJobs; i++ {
		resp := postStream(t, ctx, slow.URL, `{"figures":["14"]}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream submit %d: status %d", i, resp.StatusCode)
		}
	}
	resp := postStream(t, context.Background(), slow.URL, `{"figures":["14"]}`)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("stream submit over the cap: status %d, Retry-After %q, content type %q, body %q",
			resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get("Content-Type"), msg)
	}
}

// slowPlans are plan bodies whose cells take seconds each at scale 50,
// one at a time: a figure, which streams over the worker pool, and a
// coordinator's one-cell submission, which runs on the request's own
// goroutine.
var slowPlans = []struct{ name, body string }{
	{"figure", `{"figures":["14"]}`},
	{"one-cell", string(vexsmt.AppendPlanSubmit(nil, &vexsmt.PlanSubmit{
		Cells: []vexsmt.CellSpec{{Mix: "hhhh", Technique: "SMT", Threads: 4}}, Scale: 50, Seed: 1}))},
}

// A client that hangs up mid-cell cancels its plan: the simulation stops
// unfinished and the daemon's running weight drains back to 0.
func TestStreamSubmitDisconnectCancels(t *testing.T) {
	for _, tc := range slowPlans {
		t.Run(tc.name, func(t *testing.T) {
			// Running a cell out would take far longer than the deadline
			// below.
			srv := New(50, 1, 1)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			ctx, cancel := context.WithCancel(context.Background())
			resp := postStream(t, ctx, ts.URL, tc.body)
			sc := bufio.NewScanner(resp.Body)
			if !sc.Scan() {
				t.Fatalf("no ack line: %v", sc.Err())
			}
			if n := healthzRunning(t, ts); n != 1 {
				t.Fatalf("running %d while the cell simulates, want 1", n)
			}
			cancel()
			resp.Body.Close()

			waitRunning(t, ts, 0)
			if n := srv.Stats().Simulations; n != 0 {
				t.Fatalf("%d simulations finished after the hang-up, want the cell stopped unfinished", n)
			}
		})
	}
}

// Buffered streaming still pushes a slow plan's headers within a tick, so
// a client can tell "running" from "dead".
func TestStreamHeadersWithinTick(t *testing.T) {
	ts := httptest.NewServer(New(50, 1, 1).Handler()) // the cell takes seconds
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/plans",
		strings.NewReader(`{"cells":[{"mix":"hhhh","technique":"SMT","threads":4}]}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no stream headers within 1s: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
}

// flushCounter is a ResponseWriter that records what the handler wrote
// and when it flushed, safe to read while the handler runs.
type flushCounter struct {
	header http.Header

	mu        sync.Mutex
	body      bytes.Buffer
	firstSeen time.Time // first write
	flushes   []time.Time
}

func (w *flushCounter) Header() http.Header { return w.header }
func (w *flushCounter) WriteHeader(int)     {}

func (w *flushCounter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.firstSeen.IsZero() {
		w.firstSeen = time.Now()
	}
	return w.body.Write(p)
}

func (w *flushCounter) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushes = append(w.flushes, time.Now())
}

// TestStreamFlushRule pins when the stream handler flushes. A plan whose
// only cell is a cache hit never waits holding unseen output, so it makes
// no Flush call at all and leaves in the single write net/http makes when
// the handler returns. A slow plan's ack is flushed on the first tick.
func TestStreamFlushRule(t *testing.T) {
	const cell = `{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`
	mem := cache.NewMemory(0)
	h := New(20000, 1, 2, WithCache(mem)).Handler()
	serve := func(ctx context.Context, w *flushCounter, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/plans", strings.NewReader(body)).WithContext(ctx)
		h.ServeHTTP(w, r)
	}
	serve(context.Background(), &flushCounter{header: http.Header{}}, cell) // prime the cache

	hit := &flushCounter{header: http.Header{}}
	serve(context.Background(), hit, cell)
	if len(hit.flushes) != 0 {
		t.Fatalf("cache-hit plan flushed %d times, want 0", len(hit.flushes))
	}
	lines := strings.Split(strings.TrimSuffix(hit.body.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], `"meta"`) ||
		!strings.Contains(lines[1], `"cached":true`) || !strings.Contains(lines[2], `"status":"done"`) {
		t.Fatalf("cache-hit reply %q: want one ack, one cached cell and one done line", lines)
	}

	slow := New(50, 1, 1).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	w := &flushCounter{header: http.Header{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := httptest.NewRequest(http.MethodPost, "/v1/plans",
			strings.NewReader(`{"cells":[{"mix":"hhhh","technique":"SMT","threads":4}]}`)).WithContext(ctx)
		slow.ServeHTTP(w, r)
	}()
	defer func() {
		cancel()
		<-done
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		wrote, flushes, body := w.firstSeen, append([]time.Time(nil), w.flushes...), w.body.String()
		w.mu.Unlock()
		if len(flushes) > 0 {
			if lag := flushes[0].Sub(wrote); !strings.Contains(body, `"meta"`) || lag > 200*time.Millisecond {
				t.Fatalf("first flush %s after the ack was written, body %q; want the ack flushed within 200ms", lag, body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("slow plan never flushed its ack")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// oneCellHit is a server whose cache holds the one cell of hitBody, a
// coordinator's submission of that cell.
func oneCellHit(t testing.TB) (h http.Handler, hitBody []byte) {
	h = New(20000, 1, 2, WithCache(cache.NewMemory(0))).Handler()
	hitBody = vexsmt.AppendPlanSubmit(nil, &vexsmt.PlanSubmit{
		Cells: []vexsmt.CellSpec{{Mix: "llll", Technique: "SMT", Threads: 2}}, Scale: 20000, Seed: 1})
	for _, cached := range []bool{false, true} {
		rec := serveBody(h, hitBody)
		reply := rec.Body.String()
		if rec.Code != http.StatusOK || !strings.Contains(reply, `"status":"done"`) ||
			strings.Contains(reply, `"cached":true`) != cached {
			t.Fatalf("one-cell plan: status %d, reply %q; want a done plan, cached %v", rec.Code, reply, cached)
		}
	}
	return h, hitBody
}

// serveBody posts body to /v1/plans through h into a fresh recorder.
func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plans", bytes.NewReader(body)))
	return rec
}

// maxOneCellHitAllocs bounds the allocations of one cache-hit one-cell
// plan served through Handler into a recorder, request and recorder
// included, so the inline path cannot quietly regrow (56 measured, with
// a small margin).
const maxOneCellHitAllocs = 60

// raceEnabled is set under the race detector, whose allocation counts
// vary run to run (see race_test.go).
var raceEnabled bool

func TestOneCellHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	h, body := oneCellHit(t)
	allocs := testing.AllocsPerRun(100, func() { serveBody(h, body) })
	t.Logf("%.0f allocations per cache-hit one-cell plan", allocs)
	if allocs > maxOneCellHitAllocs {
		t.Fatalf("%.0f allocations per cache-hit one-cell plan, want at most %d", allocs, maxOneCellHitAllocs)
	}
}

// BenchmarkServeOneCell times the server hop alone: a coordinator's
// one-cell submission whose cell is a cache hit, through Handler into a
// recorder, with no network between.
func BenchmarkServeOneCell(b *testing.B) {
	h, body := oneCellHit(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		serveBody(h, body)
	}
}
