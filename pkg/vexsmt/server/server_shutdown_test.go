package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt/cache"
)

// TestGracefulShutdownDrainsStreams exercises the vexsmtd shutdown
// sequence against a server with a plan streaming: one CancelJobs, then
// Shutdown, must end the stream with a terminal status line (not a
// dropped connection), finish within the drain budget, and leave no
// server goroutines behind.
func TestGracefulShutdownDrainsStreams(t *testing.T) {
	for _, tc := range slowPlans {
		t.Run(tc.name, func(t *testing.T) { testShutdownDrains(t, tc.body) })
	}
}

func testShutdownDrains(t *testing.T, body string) {
	baseline := runtime.NumGoroutine()

	// Scale 500 (the one-cell body pins 50) makes cells slow enough, vs
	// the usual test scale 20000, that the plan is still running at
	// shutdown.
	srv := New(500, 1, 2, WithCache(cache.NewMemory(0)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan struct{})
	go func() { hs.Serve(ln); close(serveDone) }()
	base := "http://" + ln.Addr().String()
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	// Post returns once the handler has pushed its headers (on its first
	// tick), so the stream is wired up before shutdown begins.
	stream, err := client.Post(base+"/v1/plans", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", stream.StatusCode)
	}
	type streamEnd struct {
		last map[string]any
		err  error
	}
	endc := make(chan streamEnd, 1)
	go func() {
		var last map[string]any
		sc := bufio.NewScanner(stream.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			var line map[string]any
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				endc <- streamEnd{nil, err}
				return
			}
			last = line
		}
		endc <- streamEnd{last, sc.Err()}
	}()

	// The vexsmtd drain: cancel every plan, then let Shutdown wait for
	// the streams to end.
	srv.CancelJobs()
	shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}

	var end streamEnd
	select {
	case end = <-endc:
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open after the drain completed")
	}
	if end.err != nil {
		t.Fatalf("stream ended with a transport error, not a status line: %v", end.err)
	}
	if end.last == nil {
		t.Fatal("stream closed without emitting anything")
	}
	status, _ := end.last["status"].(string)
	if status != "cancelled" && status != "done" {
		t.Fatalf("terminal stream line = %v; want a cancelled/done status object", end.last)
	}
	if _, hasCells := end.last["cells"]; !hasCells {
		t.Fatalf("last stream line %v is not the terminal status object", end.last)
	}

	<-serveDone
	stream.Body.Close()
	tr.CloseIdleConnections()
	// Server goroutines (handlers, plan workers) must all have unwound;
	// allow a little settling and client-side slack.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d at start, %d after shutdown\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSlowHeaderConnectionClosed: a client that sends half a request
// header and stalls is disconnected once the header budget runs out,
// instead of holding a connection and its goroutine forever.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	hs := NewHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 5*time.Second || hs.IdleTimeout != 5*time.Second || hs.WriteTimeout != 0 {
		t.Fatalf("timeouts: header %s, idle %s, write %s; want 5s, 5s, none",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	// The server may accept, and start its header clock, before Dial
	// returns here, so the client clock starts before the dial.
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// No blank line: the header never ends.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	bound := hs.ReadHeaderTimeout + 2*time.Second
	conn.SetReadDeadline(start.Add(bound))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open after %s: %v", time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed < hs.ReadHeaderTimeout {
		t.Fatalf("connection closed after %s, before the %s header budget", elapsed, hs.ReadHeaderTimeout)
	}
}
