package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vexsmt/internal/wstore"
)

// TestFlagValidation: bad invocations die with a helpful error instead of
// a partial run.
func TestFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"no-mode":             {},
		"unknown-flag":        {"-bogus"},
		"record-needs-bench":  {"-record", "100"},
		"record-needs-out":    {"-bench", "idct", "-record", "100"},
		"unknown-bench":       {"-bench", "nosuch"},
		"replay-missing-file": {"-replay", filepath.Join(t.TempDir(), "nope.vxt")},
	} {
		t.Run(name, func(t *testing.T) {
			if err := run(args); err == nil {
				t.Fatalf("args %v accepted", args)
			}
		})
	}
}

// TestRecordReplayRoundTrip: -record writes a VXT1 file that -replay (and
// the workload store) read back.
func TestRecordReplayRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "idct.vxt")
	if err := run([]string{"-bench", "idct", "-record", "500", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-replay", out}); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusRecordsVectorProfiles: -corpus emits one loadable .vxt per
// vector profile — the corpus vexsmtd -workload-dir serves.
func TestCorpusRecordsVectorProfiles(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-corpus", dir, "-record", "300"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("corpus has %d files, want 3 vector profiles", len(entries))
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".vxt") {
			t.Errorf("unexpected corpus file %s", e.Name())
		}
	}
	traces, err := wstore.New().LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		if tr.Len() != 300 {
			t.Errorf("%s: %d instructions, want 300", tr.Name, tr.Len())
		}
	}
}

// TestWriteFileLeavesNoTornTrace: a recording whose write fails leaves no
// file at the target path (nor a temp file a loader could pick up), and
// an existing trace there is left as it was.
func TestWriteFileLeavesNoTornTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fir.vxt")
	failing := func(w io.Writer) error {
		w.Write([]byte("VXT1 half a trace"))
		return errors.New("disk full")
	}
	if err := writeFile(path, failing); err == nil {
		t.Fatal("failed write reported success")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed write left %d files, first %s", len(entries), entries[0].Name())
	}

	if err := writeFile(path, func(w io.Writer) error { _, err := w.Write([]byte("old")); return err }); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, failing); err == nil {
		t.Fatal("failed write reported success")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Fatalf("failed write replaced the existing file: %q, %v", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed write left %d files, want only the existing trace", len(entries))
	}
}
