package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// TestUnknownFigureRejectedUpFront: a typo'd -fig must fail immediately
// with the list of valid names instead of silently running an empty (or
// wrong) plan.
func TestUnknownFigureRejectedUpFront(t *testing.T) {
	for _, bad := range []string{"bogus", "14,bogus", "all,bogus"} {
		err := run([]string{"-fig", bad})
		if err == nil {
			t.Fatalf("-fig %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "13a, 13b, 14, 15, 16") {
			t.Errorf("-fig %q: error does not list the valid figures: %v", bad, err)
		}
	}
}

// TestEmptyGridPlanRejected: figures that plan no grid cells (13a/13b)
// used to "run" a zero-cell sweep and print an empty summary as if it
// had worked; now they fail up front and point at paperbench.
func TestEmptyGridPlanRejected(t *testing.T) {
	for _, figs := range []string{"13a", "13b", "13a,13b"} {
		err := run([]string{"-fig", figs})
		if err == nil {
			t.Fatalf("-fig %q ran an empty grid plan", figs)
		}
		if !strings.Contains(err.Error(), "no grid cells") {
			t.Errorf("-fig %q: unhelpful error: %v", figs, err)
		}
	}
	// The same figures alongside a grid figure are fine — the grid is
	// non-empty.
	if _, err := gridPlan("13a,14", false, "static", nil); err != nil {
		t.Fatalf("13a,14: %v", err)
	}
	// A sweep makes any figure list non-empty.
	if _, err := gridPlan("13a", true, "static", nil); err != nil {
		t.Fatalf("13a with -sweep: %v", err)
	}
}

// TestUnknownPredictorRejectedUpFront: a typo'd -predictor must fail
// immediately with the list of valid models instead of running the wrong
// (or no) sweep.
func TestUnknownPredictorRejectedUpFront(t *testing.T) {
	for _, bad := range []string{"perceptron", "bimodal,perceptron", "all,perceptron"} {
		err := run([]string{"-fig", "14", "-predictor", bad})
		if err == nil {
			t.Fatalf("-predictor %q accepted", bad)
		}
		if !strings.Contains(err.Error(), "static, bimodal, gshare, tage") {
			t.Errorf("-predictor %q: error does not list the valid models: %v", bad, err)
		}
	}
	if err := run([]string{"-fig", "14", "-predictor", ","}); err == nil {
		t.Fatal("-predictor \",\" accepted")
	}
}

// TestBadCacheFlagRejected: -cache accepts only on/off.
func TestBadCacheFlagRejected(t *testing.T) {
	err := run([]string{"-fig", "14", "-cache", "sideways"})
	if err == nil || !strings.Contains(err.Error(), "want on or off") {
		t.Fatalf("-cache sideways: %v", err)
	}
}

// TestFleetFlagValidation: fleet flags that cannot work together (or
// alone) die before any network traffic.
func TestFleetFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"fleet-and-shards":     {"-fleet", "http://r:9090", "-shards", "http://a:8080"},
		"status-without-fleet": {"-status"},
		"bad-fleet-url":        {"-fleet", "not-a-url", "-fig", "14"},
		"negative-ttl":         {"-coordinator", "127.0.0.1:0", "-fleet-ttl", "-1s"},
	} {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err == nil {
				t.Fatalf("args %v accepted", args)
			}
		})
	}
}

// TestSlowHeaderConnectionClosed: a client that sends half a request
// header to the fleet coordinator and stalls is disconnected once the
// header budget runs out, instead of holding a connection and its
// goroutine forever.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = pw
	defer func() { os.Stdout = stdout }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- runCoordinator(ctx, "127.0.0.1:0", time.Second)
		pw.Close()
	}()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "vexsmtctl coordinator listening on "); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("coordinator returned before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no listening line within 10s")
	}

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

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("coordinator shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator did not return within 10s of cancellation")
	}
}
