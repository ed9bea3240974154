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
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
)

// testServer runs at a tiny scale so plans finish in milliseconds.
func testServer() *httptest.Server {
	return httptest.NewServer(New(20000, 1, 2).Handler())
}

// planReply is one POST /v1/plans reply read to its end: the ack, every
// cell line (sorted into the canonical order, under the ack's meta), and
// the terminal status line.
type planReply struct {
	Ack       ack
	Results   vexsmt.ResultSet
	Status    string `json:"status"`
	Error     string `json:"error"`
	Completed int    `json:"completed"`
	Cells     int    `json:"cells"`
}

// runPlan posts body to /v1/plans, requires the 200 NDJSON reply, and
// reads the stream through its terminal status line, which must be the
// last line.
func runPlan(t *testing.T, ts *httptest.Server, body string) planReply {
	t.Helper()
	resp := postStream(t, context.Background(), ts.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/plans: status %d, content type %q: %s",
			resp.StatusCode, resp.Header.Get("Content-Type"), msg)
	}
	lines := readLines(t, resp.Body)
	if len(lines) < 2 {
		t.Fatalf("reply %q: want an ack and a status line at least", lines)
	}
	var out planReply
	if err := json.Unmarshal([]byte(lines[0]), &out.Ack); err != nil {
		t.Fatalf("ack line %q: %v", lines[0], err)
	}
	if out.Ack.Meta.SchemaVersion != vexsmt.SchemaVersion {
		t.Fatalf("plan meta schema version %d, want %d", out.Ack.Meta.SchemaVersion, vexsmt.SchemaVersion)
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &out); err != nil || out.Status == "" {
		t.Fatalf("last line %q is not a terminal status object (%v)", last, err)
	}
	out.Results.Meta = out.Ack.Meta
	for _, line := range lines[1 : len(lines)-1] {
		var cell vexsmt.CellResult
		if err := json.Unmarshal([]byte(line), &cell); err != nil {
			t.Fatalf("bad cell line %q: %v", line, err)
		}
		out.Results.Cells = append(out.Results.Cells, cell)
	}
	out.Results.Sort()
	return out
}

func TestSubmitAndCollectResults(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	const plan = `{"cells":[
		{"mix":"mmhh","technique":"CSMT","threads":4},
		{"mix":"mmhh","technique":"CCSI AS","threads":4}]}`
	res := runPlan(t, ts, plan)
	if res.Status != "done" || res.Error != "" {
		t.Fatalf("terminal state %q (err %q), want done", res.Status, res.Error)
	}
	if res.Ack.Cells != 2 || res.Cells != 2 || res.Completed != 2 || len(res.Results.Cells) != 2 {
		t.Fatalf("ack %d cells, status %d/%d, streamed %d; want 2 throughout",
			res.Ack.Cells, res.Completed, res.Cells, len(res.Results.Cells))
	}

	// The streamed cells, sorted, are exactly what one process collects.
	svc, err := vexsmt.New(vexsmt.WithScale(20000), vexsmt.WithSeed(1), vexsmt.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	var p vexsmt.Plan
	if err := json.Unmarshal([]byte(plan), &p); err != nil {
		t.Fatal(err)
	}
	want, err := svc.Collect(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var got, wantBuf bytes.Buffer
	if err := vexsmt.EncodeResults(&got, &res.Results); err != nil {
		t.Fatal(err)
	}
	if err := vexsmt.EncodeResults(&wantBuf, want); err != nil {
		t.Fatal(err)
	}
	if got.String() != wantBuf.String() {
		t.Fatalf("streamed results differ from Collect:\n got %s\nwant %s", got.String(), wantBuf.String())
	}
}

func TestStreamingResults(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	res := runPlan(t, ts, `{"cells":[
		{"mix":"llll","technique":"SMT","threads":2},
		{"mix":"mmmm","technique":"SMT","threads":2}]}`)
	if len(res.Results.Cells) != 2 || res.Status != "done" {
		t.Fatalf("streamed %d cells, final status %q; want 2/done", len(res.Results.Cells), res.Status)
	}
	for _, c := range res.Results.Cells {
		if c.IPC <= 0 {
			t.Errorf("%s: non-positive IPC", c.CellSpec)
		}
	}
}

// TestBadRequests: a bad plan is a 400, POST is the only method on
// /v1/plans, and the daemon serves no other plan routes.
func TestBadRequests(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	for _, body := range []string{
		`{"figures":["nonsense"]}`,
		`{"cells":[{"mix":"zzzz","technique":"SMT","threads":2}]}`,
		`{"scale":-4}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req, _ := http.NewRequest(method, ts.URL+"/v1/plans", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s /v1/plans: status %d, want 405", method, resp.StatusCode)
		}
	}
	for _, route := range []string{"results", "prefetch"} {
		resp, err := http.Post(ts.URL+"/v1/"+route, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/v1/%s: status %d, want 404", route, resp.StatusCode)
		}
	}
}

func TestSeedZeroOverrideHonored(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	res := runPlan(t, ts, `{"cells":[{"mix":"llll","technique":"SMT","threads":2}],"seed":0}`)
	if res.Ack.Meta.Seed != 0 {
		t.Fatalf("explicit seed 0 ran with seed %d", res.Ack.Meta.Seed)
	}
}

func TestScaleZeroRejected(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/plans", "application/json",
		strings.NewReader(`{"figures":["14"],"scale":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("explicit scale 0: status %d, want 400", resp.StatusCode)
	}
}

// openStream posts body and reads the ack line of its 200 reply, leaving
// the plan running until ctx ends or the caller closes the body.
func openStream(t *testing.T, ctx context.Context, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp := postStream(t, ctx, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /v1/plans: status %d: %s", resp.StatusCode, msg)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("no ack line: %v", err)
	}
	return resp
}

// waitRunning polls /healthz until its running weight is want.
func waitRunning(t *testing.T, ts *httptest.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for healthzRunning(t, ts) != want {
		if time.Now().After(deadline) {
			t.Fatalf("running %d after 10s, want %d", healthzRunning(t, ts), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunningJobsCap(t *testing.T) {
	ts := httptest.NewServer(New(50, 1, 1).Handler()) // slow cells
	defer ts.Close()

	// Fill the admission cap with long-running plans, then expect 503.
	var streams []*http.Response
	for i := 0; i < maxRunningJobs; i++ {
		resp := openStream(t, context.Background(), ts, `{"figures":["14"]}`)
		defer resp.Body.Close()
		streams = append(streams, resp)
	}
	resp, err := http.Post(ts.URL+"/v1/plans", "application/json",
		strings.NewReader(`{"figures":["14"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission over the cap: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("admission shedding without a Retry-After hint")
	}
	// Hanging up on one frees capacity.
	streams[0].Body.Close()
	waitRunning(t, ts, maxRunningJobs-1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	openStream(t, ctx, ts, `{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`).Body.Close()
}

func TestHealthzReportsPlacementSignals(t *testing.T) {
	ts := httptest.NewServer(New(50, 7, 1).Handler()) // slow cells
	defer ts.Close()

	health := func() (h struct {
		OK            bool    `json:"ok"`
		Capacity      int     `json:"capacity"`
		Running       int     `json:"running"`
		Scale         int64   `json:"scale"`
		Seed          uint64  `json:"seed"`
		SchemaVersion int     `json:"schema_version"`
		Uptime        float64 `json:"uptime_seconds"`
		Cache         struct {
			Enabled bool   `json:"enabled"`
			Entries *int64 `json:"entries"`
			Bytes   *int64 `json:"bytes"`
		} `json:"cache"`
	}) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := health()
	if !h.OK || h.Capacity != maxRunningJobs || h.Running != 0 {
		t.Fatalf("idle healthz: %+v", h)
	}
	if h.Scale != 50 || h.Seed != 7 || h.SchemaVersion != vexsmt.SchemaVersion {
		t.Fatalf("healthz defaults: %+v", h)
	}
	if h.Uptime <= 0 {
		t.Fatalf("healthz uptime_seconds %v, want > 0", h.Uptime)
	}
	// No cache configured: enabled false and no sizing fields at all.
	if h.Cache.Enabled || h.Cache.Entries != nil || h.Cache.Bytes != nil {
		t.Fatalf("cacheless healthz reported cache sizing: %+v", h.Cache)
	}

	stream := openStream(t, context.Background(), ts, `{"figures":["14"]}`)
	if h := health(); h.Running != 1 {
		t.Fatalf("healthz while running: %+v", h)
	}
	stream.Body.Close()
	waitRunning(t, ts, 0)
}

func TestHealthzReportsPredictorAxis(t *testing.T) {
	srv := New(50, 1, 1) // slow cells: the plan is still running when probed
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	predictors := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Predictors string `json:"predictors"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Predictors
	}

	if p := predictors(); p != "" {
		t.Fatalf("idle daemon reports predictor axis %q", p)
	}
	stream := openStream(t, context.Background(), ts, `{"figures":["14"],"predictors":["bimodal","static"]}`)
	if p := predictors(); p != "bimodal,static" {
		t.Fatalf("running predictor axis %q, want \"bimodal,static\"", p)
	}
	if st := srv.Stats(); st.Predictors != "bimodal,static" {
		t.Fatalf("Stats().Predictors = %q", st.Predictors)
	}

	stream.Body.Close()
	waitRunning(t, ts, 0)
	if p := predictors(); p != "" {
		t.Fatalf("cancelled daemon still reports predictor axis %q", p)
	}
}

func TestCancelJobsDrainsRunningPlans(t *testing.T) {
	srv := New(50, 1, 1) // slow cells
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	streams := []*http.Response{
		postStream(t, context.Background(), ts.URL, `{"figures":["14"]}`),
		postStream(t, context.Background(), ts.URL, `{"figures":["15"]}`),
	}
	for _, s := range streams {
		defer s.Body.Close()
		if s.StatusCode != http.StatusOK {
			t.Fatalf("submit: status %d", s.StatusCode)
		}
	}
	srv.CancelJobs()

	// Every open stream ends with its terminal status line, not a dropped
	// connection.
	for i, s := range streams {
		done := make(chan []byte, 1)
		go func() {
			body, _ := io.ReadAll(s.Body)
			done <- body
		}()
		var body []byte
		select {
		case body = <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("stream %d still open 20s after CancelJobs", i)
		}
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		last := lines[len(lines)-1]
		var end struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(last), &end); err != nil ||
			(end.Status != "cancelled" && end.Status != "done") {
			t.Fatalf("stream %d ends with %q, want a cancelled or done status line", i, last)
		}
	}

	// A plan that arrives after CancelJobs is refused at admission.
	resp, err := http.Post(ts.URL+"/v1/plans", "application/json",
		strings.NewReader(`{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit after CancelJobs: status %d, Retry-After %q; want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestSubmitAllFigures: the plan vocabulary's "all" is accepted by the
// submit endpoint (the whole 144-cell grid), and a typo beside it is
// still a 400.
func TestSubmitAllFigures(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	resp := postStream(t, context.Background(), ts.URL, `{"figures":["all"]}`)
	var a ack
	err := json.NewDecoder(resp.Body).Decode(&a)
	resp.Body.Close() // hang up: the grid need not run out
	if err != nil {
		t.Fatalf("ack: %v", err)
	}
	if a.Cells != 144 {
		t.Fatalf(`{"figures":["all"]} planned %d cells, want 144`, a.Cells)
	}

	resp, err = http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(`{"figures":["all","bogus"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`{"figures":["all","bogus"]}: status %d, want 400`, resp.StatusCode)
	}
}
