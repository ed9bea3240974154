package main

import (
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestStartupFailures: every bad invocation fails from run before the
// daemon serves anything. Each case passes -cache off (or fails before
// the cache opens), so no test touches the user cache dir.
func TestStartupFailures(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown-flag", []string{"-bogus"}, "bogus"},
		{"bad-cache", []string{"-cache", "bogus"}, "want on or off"},
		{"bad-chaos-profile", []string{"-cache", "off", "-chaos-profile", "bogus"}, "bogus"},
		{"missing-workload-dir", []string{"-cache", "off", "-addr", "127.0.0.1:0",
			"-workload-dir", filepath.Join(t.TempDir(), "no-such-corpus")}, "no-such-corpus"},
		{"unbindable-addr", []string{"-cache", "off", "-addr", busy.Addr().String()}, "address already in use"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestSlowHeaderConnectionClosed: a client that sends half a request
// header and stalls is disconnected once the header budget runs out,
// instead of holding a connection and its goroutine forever.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Fatalf("timeouts: header %s, idle %s, write %s", hs.ReadHeaderTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
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
