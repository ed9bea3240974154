package main

import (
	"strings"
	"testing"
)

// TestBadFlagsRejected: invalid identities die with a helpful error before
// any simulation starts.
func TestBadFlagsRejected(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"unknown-predictor":      {[]string{"-predictor", "perceptron"}, "static, bimodal, gshare, tage"},
		"unknown-predictor-typo": {[]string{"-predictor", "Tage2"}, "static, bimodal, gshare, tage"},
		"unknown-mix":            {[]string{"-mix", "zzzz"}, "unknown mix"},
		"unknown-technique":      {[]string{"-tech", "XXSI"}, "unknown technique"},
	} {
		t.Run(name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestPredictorNameCaseInsensitive: predictor names normalize like every
// other identity flag — a noisy spelling runs (a tiny simulation here)
// instead of erroring.
func TestPredictorNameCaseInsensitive(t *testing.T) {
	args := []string{"-mix", "llhh", "-tech", "SMT", "-threads", "2",
		"-scale", "20000", "-predictor", " GSHARE "}
	if err := run(args); err != nil {
		t.Fatalf("args %v: %v", args, err)
	}
}
