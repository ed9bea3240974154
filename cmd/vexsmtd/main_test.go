package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
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

// TestSignalShutdownEndsStreams drives a served daemon through a real
// SIGTERM: the open plan stream ends with a terminal "cancelled" line,
// and run returns nil within the drain time.
func TestSignalShutdownEndsStreams(t *testing.T) {
	addr, errc := startDaemon(t)

	resp, err := http.Post("http://"+addr+"/v1/plans", "application/json", strings.NewReader(`{"figures":["14"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	body := bufio.NewReader(resp.Body)
	if _, err := body.ReadString('\n'); err != nil {
		t.Fatalf("no ack line: %v", err)
	}

	sigterm(t)

	rest := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(body)
		rest <- string(b)
	}()
	select {
	case tail := <-rest:
		lines := strings.Split(strings.TrimSpace(tail), "\n")
		var end struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil || end.Status != "cancelled" {
			t.Fatalf("stream ended with %q, want a terminal cancelled line", lines[len(lines)-1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open 10s after SIGTERM")
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within the 10s drain")
	}
}

// TestSlowHeaderConnectionClosed: a client that sends half a request
// header to the daemon's API listener and stalls is disconnected once
// the header budget runs out, instead of holding a connection and its
// goroutine forever.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	addr, errc := startDaemon(t)

	// The server may accept, and start its header clock, before Dial
	// returns here, so the client clock starts before the dial.
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// No blank line: the header never ends.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	const budget = 5 * time.Second
	conn.SetReadDeadline(start.Add(budget + 2*time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open after %s: %v", time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed < budget {
		t.Fatalf("connection closed after %s, before the %s header budget", elapsed, budget)
	}

	sigterm(t)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within the 10s drain")
	}
}

// startDaemon runs the daemon on a kernel-picked port with the cache
// off and returns the address scraped from its listening line, plus the
// channel run's result arrives on. Stdout is redirected for the test.
func startDaemon(t *testing.T) (string, <-chan error) {
	t.Helper()
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = pw
	t.Cleanup(func() { os.Stdout = stdout })

	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", "127.0.0.1:0", "-cache", "off", "-scale", "50", "-drain", "10s"})
		pw.Close()
	}()
	// run registers its signal handler before it prints the listening
	// line; the reader drains the pipe to its end so run never blocks.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "vexsmtd listening on "); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case addr := <-addrc:
		return addr, errc
	case err := <-errc:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no listening line within 10s")
	}
	return "", nil
}

// sigterm sends SIGTERM to the test process, which a running daemon
// catches to begin its drain.
func sigterm(t *testing.T) {
	t.Helper()
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}
