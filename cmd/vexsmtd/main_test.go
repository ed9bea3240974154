package main

import (
	"net"
	"path/filepath"
	"strings"
	"testing"
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
