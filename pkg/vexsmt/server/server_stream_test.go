package server

import (
	"bufio"
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

// postStream submits body in the stream form and returns the response;
// the caller closes its body.
func postStream(t *testing.T, ctx context.Context, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/plans?stream=1", strings.NewReader(body))
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
	ID    string         `json:"id"`
	Cells int            `json:"cells"`
	Meta  vexsmt.RunMeta `json:"meta"`
}

func listedPlans(t *testing.T, ts *httptest.Server) []map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Plans []map[string]any `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Plans
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

// The stream form answers with the 202 form's ack, then exactly the lines
// a GET stream of the same plan carries, and leaves no job behind.
func TestStreamSubmitMatchesTwoStepProtocol(t *testing.T) {
	ts := testServer()
	defer ts.Close()
	const plan = `{"cells":[
		{"mix":"llll","technique":"SMT","threads":2},
		{"mix":"mmhh","technique":"CCSI AS","threads":4}],"parallelism":1}`

	// The two-step protocol: 202 submit, then GET the finished plan's stream.
	resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	var accepted ack
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("202 submit: status %d, err %v", resp.StatusCode, err)
	}
	resp, err = http.Get(ts.URL + "/v1/results?stream=1&id=" + accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := readLines(t, resp.Body)
	resp.Body.Close()

	resp = postStream(t, context.Background(), ts.URL, plan)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("stream submit: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	got := readLines(t, resp.Body)
	if len(got) == 0 {
		t.Fatal("stream submit: empty body")
	}
	var streamed ack
	if err := json.Unmarshal([]byte(got[0]), &streamed); err != nil {
		t.Fatalf("ack line %q: %v", got[0], err)
	}
	if streamed.ID == "" || streamed.ID == accepted.ID || streamed.Cells != accepted.Cells || streamed.Meta != accepted.Meta {
		t.Fatalf("ack %+v, want the 202 form's %+v under a fresh id", streamed, accepted)
	}
	if strings.Join(got[1:], "\n") != strings.Join(want, "\n") {
		t.Fatalf("stream-form lines differ from the GET stream:\n got %q\nwant %q", got[1:], want)
	}
	if !strings.Contains(want[len(want)-1], `"status":"done"`) || len(want) != 3 {
		t.Fatalf("GET stream %q: want two cells and a done line", want)
	}

	// Only the two-step plan is still registered.
	plans := listedPlans(t, ts)
	if len(plans) != 1 || plans[0]["id"] != accepted.ID {
		t.Fatalf("plans after the stream form returned: %v, want only %s", plans, accepted.ID)
	}
}

// Everything that fails before the stream starts fails exactly as the 202
// form does: a JSON error, never an NDJSON body.
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

// A client that hangs up mid-cell cancels its plan: the daemon's running
// weight drains back to 0 and the job is evicted.
func TestStreamSubmitDisconnectCancels(t *testing.T) {
	// At this scale the plan's cells take seconds each, one at a time:
	// running it out would take far longer than the deadline below.
	ts := httptest.NewServer(New(50, 1, 1).Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	resp := postStream(t, ctx, ts.URL, `{"figures":["14"]}`)
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no ack line: %v", sc.Err())
	}
	if n := healthzRunning(t, ts); n != 1 {
		t.Fatalf("running %d while the cell simulates, want 1", n)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for healthzRunning(t, ts) != 0 || len(listedPlans(t, ts)) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("10s after the client hung up: running %d, plans %v",
				healthzRunning(t, ts), listedPlans(t, ts))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Buffered streaming still pushes a slow plan's headers within a tick, so
// a watcher can tell "running" from "dead".
func TestStreamHeadersWithinTick(t *testing.T) {
	ts := httptest.NewServer(New(50, 1, 1).Handler()) // the cell takes seconds
	defer ts.Close()
	id := postPlan(t, ts, `{"cells":[{"mix":"hhhh","technique":"SMT","threads":4}]}`)
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans?id="+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/results?stream=1&id="+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("no stream headers within 1s: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
}
