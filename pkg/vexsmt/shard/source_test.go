package shard_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/sched"
	"vexsmt/pkg/vexsmt/shard"
)

// daemonMeta is the ack meta a daemon running the test job stamps.
func daemonMeta() vexsmt.RunMeta {
	return vexsmt.RunMeta{SchemaVersion: vexsmt.SchemaVersion, Seed: 1, Scale: testScale,
		Techniques: strings.Join(vexsmt.Techniques(), ",")}
}

// fakeDaemon serves just enough of the vexsmtd /v1 protocol for an HTTP
// backend to submit a plan in streaming form: the ack line carrying meta,
// then whatever the test scripts, so torn and terminal-less streams are
// easy to stage.
func fakeDaemon(t *testing.T, meta vexsmt.RunMeta, stream func(w http.ResponseWriter)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		json.NewEncoder(w).Encode(map[string]any{"id": "p1", "cells": 1, "meta": meta})
		stream(w)
	})
	return httptest.NewServer(mux)
}

// testJob is the one-cell job the fake-daemon tests submit.
var testJob = shard.Job{
	Cells: []vexsmt.CellSpec{{Mix: "mmhh", Technique: "SMT", Threads: 2}},
	Scale: testScale,
	Seed:  1,
}

// TestHTTPRunTornStreamIsRetryable: a daemon that dies mid-stream —
// whether between NDJSON records or halfway through one — must surface a
// retryable error from Run, never a silent partial ResultSet and never a
// Permanent marker (the failure is the daemon's, so the scheduler must be
// free to rerun the cell elsewhere instead of losing it).
func TestHTTPRunTornStreamIsRetryable(t *testing.T) {
	cell := `{"mix":"mmhh","technique":"SMT","threads":2,"seed":7,"ipc":1.5}` + "\n"
	for name, stream := range map[string]func(w http.ResponseWriter){
		"dies-between-records": func(w http.ResponseWriter) {
			fmt.Fprint(w, cell) // complete record, then EOF with no terminal line
		},
		"dies-mid-record": func(w http.ResponseWriter) {
			fmt.Fprint(w, cell+`{"mix":"llll","techni`) // record torn mid-JSON
		},
	} {
		t.Run(name, func(t *testing.T) {
			ts := fakeDaemon(t, daemonMeta(), stream)
			defer ts.Close()
			b, err := shard.NewHTTP(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := b.Run(context.Background(), testJob)
			if err == nil {
				t.Fatalf("torn stream returned a ResultSet with %d cells", len(rs.Cells))
			}
			if strings.Contains(err.Error(), "daemon accepted plan") {
				t.Fatalf("ack refused before the stream was read: %v", err)
			}
			if sched.IsPermanent(err) {
				t.Fatalf("torn stream marked Permanent — the coordinator would not retry: %v", err)
			}
		})
	}
}

// TestHTTPRunRejectsForeignMeta: a daemon whose ack stamps a different
// schema, seed, scale or technique set than the job wants is refused on
// the ack line, before any cell is read.
func TestHTTPRunRejectsForeignMeta(t *testing.T) {
	for name, rewrite := range map[string]func(*vexsmt.RunMeta){
		"schema":     func(m *vexsmt.RunMeta) { m.SchemaVersion++ },
		"seed":       func(m *vexsmt.RunMeta) { m.Seed = 99 },
		"scale":      func(m *vexsmt.RunMeta) { m.Scale = 1 },
		"techniques": func(m *vexsmt.RunMeta) { m.Techniques = "SMT" },
	} {
		t.Run(name, func(t *testing.T) {
			meta := daemonMeta()
			rewrite(&meta)
			ts := fakeDaemon(t, meta, func(http.ResponseWriter) {})
			defer ts.Close()
			b, err := shard.NewHTTP(ts.URL)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Run(context.Background(), testJob); err == nil || !strings.Contains(err.Error(), "daemon accepted plan") {
				t.Fatalf("foreign %s: got %v, want the ack refused", name, err)
			}
		})
	}
}

// TestHealthHonorsContextDeadline: a daemon whose /healthz hangs must
// fail the probe at the caller's deadline instead of holding up placement.
func TestHealthHonorsContextDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	b, err := shard.NewHTTP(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := b.Health(ctx); err == nil {
		t.Fatal("hanging healthz probe reported healthy")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("probe took %v, want ~50ms", elapsed)
	}
}

// fnSource adapts a function to shard.Source.
type fnSource func(ctx context.Context) ([]shard.Backend, error)

func (f fnSource) Backends(ctx context.Context) ([]shard.Backend, error) { return f(ctx) }

// TestCoordinatorResolvesSourcePerCollect: a Source-backed coordinator
// re-reads membership at every run, so backends that join between sweeps
// are used without rebuilding the coordinator — the property the fleet
// registry depends on.
func TestCoordinatorResolvesSourcePerCollect(t *testing.T) {
	svc := testService(t)
	plan := vexsmt.Plan{Figures: []string{"14"}}
	want := collectBaseline(t, svc, plan)

	var resolves atomic.Int64
	members := []shard.Backend{shard.NewLocal("a", svc)}
	src := fnSource(func(context.Context) ([]shard.Backend, error) {
		resolves.Add(1)
		return append([]shard.Backend(nil), members...), nil
	})
	c, err := shard.NewFromSource(shard.Config{Scale: testScale, Seed: 1}, src)
	if err != nil {
		t.Fatal(err)
	}

	for sweep := 0; sweep < 2; sweep++ {
		rs, err := c.Collect(context.Background(), plan)
		if err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		if got := encodeCanonical(t, rs); got != want {
			t.Fatalf("sweep %d diverged from single-process baseline", sweep)
		}
		// A member joins between sweeps; the next Collect must see it.
		members = append(members, shard.NewLocal(fmt.Sprintf("b%d", sweep), svc))
	}
	if n := resolves.Load(); n != 2 {
		t.Fatalf("source resolved %d times for 2 sweeps, want 2", n)
	}
}

// TestSourceFailuresSurface: a nil source is a construction error; an
// erroring or empty source fails the run up front.
func TestSourceFailuresSurface(t *testing.T) {
	if _, err := shard.NewFromSource(shard.Config{}, nil); err == nil {
		t.Fatal("nil source accepted")
	}
	plan := vexsmt.Plan{Figures: []string{"14"}}
	for name, src := range map[string]shard.Source{
		"erroring": fnSource(func(context.Context) ([]shard.Backend, error) {
			return nil, fmt.Errorf("registry unreachable")
		}),
		"empty": fnSource(func(context.Context) ([]shard.Backend, error) {
			return nil, nil
		}),
	} {
		t.Run(name, func(t *testing.T) {
			c, err := shard.NewFromSource(shard.Config{Scale: testScale, Seed: 1}, src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Collect(context.Background(), plan); err == nil {
				t.Fatal("collect succeeded with no backends")
			} else if !strings.Contains(err.Error(), "backend") {
				t.Fatalf("unhelpful error: %v", err)
			}
		})
	}
}
