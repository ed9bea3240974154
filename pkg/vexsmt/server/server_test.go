package server

import (
	"bufio"
	"bytes"
	"encoding/json"
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

func postPlan(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/plans: %d: %s", resp.StatusCode, buf.String())
	}
	var out struct {
		ID    string         `json:"id"`
		Cells int            `json:"cells"`
		Meta  vexsmt.RunMeta `json:"meta"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Meta.SchemaVersion != vexsmt.SchemaVersion {
		t.Fatalf("plan meta schema version %d, want %d", out.Meta.SchemaVersion, vexsmt.SchemaVersion)
	}
	return out.ID
}

type resultsResponse struct {
	ID        string           `json:"id"`
	Status    string           `json:"status"`
	Error     string           `json:"error"`
	Completed int              `json:"completed"`
	Cells     int              `json:"cells"`
	Results   vexsmt.ResultSet `json:"results"`
}

func getResults(t *testing.T, ts *httptest.Server, id string) resultsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/results?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out resultsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSubmitAndCollectResults(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	id := postPlan(t, ts, `{"cells":[
		{"mix":"mmhh","technique":"CSMT","threads":4},
		{"mix":"mmhh","technique":"CCSI AS","threads":4}]}`)

	deadline := time.Now().Add(30 * time.Second)
	var res resultsResponse
	for {
		res = getResults(t, ts, id)
		if res.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("plan still running after 30s: %+v", res)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if res.Status != "done" || res.Error != "" {
		t.Fatalf("terminal state %q (err %q), want done", res.Status, res.Error)
	}
	if res.Completed != 2 || len(res.Results.Cells) != 2 {
		t.Fatalf("completed %d cells (%d in results), want 2", res.Completed, len(res.Results.Cells))
	}
	if res.Results.Meta.SchemaVersion != vexsmt.SchemaVersion {
		t.Fatalf("results schema version %d", res.Results.Meta.SchemaVersion)
	}
	for _, c := range res.Results.Cells {
		if c.IPC <= 0 {
			t.Errorf("%s/%s/%dT: non-positive IPC", c.Mix, c.Technique, c.Threads)
		}
	}
}

func TestStreamingResults(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	id := postPlan(t, ts, `{"cells":[
		{"mix":"llll","technique":"SMT","threads":2},
		{"mix":"mmmm","technique":"SMT","threads":2}]}`)

	resp, err := http.Get(ts.URL + "/v1/results?id=" + id + "&stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var cells int
	var status string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if s, ok := line["status"].(string); ok {
			status = s
			break
		}
		cells++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cells != 2 || status != "done" {
		t.Fatalf("streamed %d cells, final status %q; want 2/done", cells, status)
	}
}

func TestCancelPlan(t *testing.T) {
	ts := httptest.NewServer(New(50, 1, 2).Handler()) // slow cells
	defer ts.Close()

	id := postPlan(t, ts, `{"figures":["14","15","16"]}`)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans?id="+id, nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "cancelled" {
		t.Fatalf("status %q after cancel", out.Status)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
}

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
	resp, err := http.Get(ts.URL + "/v1/results?id=missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown plan: status %d, want 404", resp.StatusCode)
	}
}

func TestSeedZeroOverrideHonored(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/plans", "application/json",
		strings.NewReader(`{"cells":[{"mix":"llll","technique":"SMT","threads":2}],"seed":0}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Meta vexsmt.RunMeta `json:"meta"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Meta.Seed != 0 {
		t.Fatalf("explicit seed 0 ran with seed %d", out.Meta.Seed)
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

func TestDeleteEvictsJob(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	id := postPlan(t, ts, `{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans?id="+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/results?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("results after DELETE: status %d, want 404 (job evicted)", resp.StatusCode)
	}
}

func TestTerminalJobEviction(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	// Submit past the retention cap; the oldest terminal jobs must age out.
	firstID := postPlan(t, ts, `{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`)
	waitDone := func(id string) {
		deadline := time.Now().Add(30 * time.Second)
		for getResults(t, ts, id).Status == "running" {
			if time.Now().After(deadline) {
				t.Fatalf("%s still running", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitDone(firstID)
	// Submit sequentially (waiting each one out) so the running-jobs cap
	// never rejects a submission; eviction is what's under test here.
	var lastID string
	for i := 0; i < maxRetainedJobs; i++ {
		lastID = postPlan(t, ts, `{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`)
		waitDone(lastID)
	}

	resp, err := http.Get(ts.URL + "/v1/results?id=" + firstID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest terminal job not evicted past the cap: status %d", resp.StatusCode)
	}
	if got := getResults(t, ts, lastID); got.Status != "done" {
		t.Fatalf("newest job lost: %+v", got)
	}
}

func TestRunningJobsCap(t *testing.T) {
	ts := httptest.NewServer(New(50, 1, 1).Handler()) // slow cells
	defer ts.Close()

	// Fill the admission cap with long-running plans, then expect 503.
	ids := make([]string, 0, maxRunningJobs)
	for i := 0; i < maxRunningJobs; i++ {
		ids = append(ids, postPlan(t, ts, `{"figures":["14"]}`))
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
	// Cancelling one frees capacity.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans?id="+ids[0], nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	postPlan(t, ts, `{"cells":[{"mix":"llll","technique":"SMT","threads":2}]}`)
	for _, id := range ids[1:] {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans?id="+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
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

	id := postPlan(t, ts, `{"figures":["14"]}`)
	if h := health(); h.Running != 1 {
		t.Fatalf("healthz while running: %+v", h)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans?id="+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := health(); h.Running != 0 {
		t.Fatalf("healthz after cancel: %+v", h)
	}
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
	id := postPlan(t, ts, `{"figures":["14"],"predictors":["bimodal","static"]}`)
	if p := predictors(); p != "bimodal,static" {
		t.Fatalf("running predictor axis %q, want \"bimodal,static\"", p)
	}
	if st := srv.Stats(); st.Predictors != "bimodal,static" {
		t.Fatalf("Stats().Predictors = %q", st.Predictors)
	}
	// The plan listing names each job's axis too.
	resp, err := http.Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Plans []map[string]any `json:"plans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Plans) != 1 || listing.Plans[0]["predictors"] != "bimodal,static" {
		t.Fatalf("plan listing predictors: %+v", listing.Plans)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans?id="+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if p := predictors(); p != "" {
		t.Fatalf("cancelled daemon still reports predictor axis %q", p)
	}
}

func TestCancelJobsDrainsRunningPlans(t *testing.T) {
	srv := New(50, 1, 1) // slow cells
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := []string{
		postPlan(t, ts, `{"figures":["14"]}`),
		postPlan(t, ts, `{"figures":["15"]}`),
	}
	done := make(chan struct{})
	go func() {
		srv.CancelJobs()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("CancelJobs did not drain within 20s")
	}
	// Jobs stay registered with a terminal status so late watchers see an
	// answer, not a 404.
	for _, id := range ids {
		if res := getResults(t, ts, id); res.Status != "cancelled" && res.Status != "done" {
			t.Fatalf("job %s status %q after CancelJobs", id, res.Status)
		}
	}
}

// TestSubmitAllFigures: the plan vocabulary's "all" is accepted by the
// submit endpoint (the whole 144-cell grid), and a typo beside it is
// still a 400.
func TestSubmitAllFigures(t *testing.T) {
	ts := testServer()
	defer ts.Close()

	id := postPlan(t, ts, `{"figures":["all"]}`)
	if res := getResults(t, ts, id); res.Cells != 144 {
		t.Fatalf(`{"figures":["all"]} planned %d cells, want 144`, res.Cells)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans?id="+id, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}

	resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(`{"figures":["all","bogus"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`{"figures":["all","bogus"]}: status %d, want 400`, resp.StatusCode)
	}
}
