package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"vexsmt/pkg/vexsmt"
	"vexsmt/pkg/vexsmt/cache"
)

// TestPlanReplyTranscript pins the plan stream's bytes: a one-cell plan,
// posted cache-off, then cold and warm through a disk cache, answers with
// exactly the lines json.Encoder writes for the same ack, cell and status
// values — the map-built lines the daemon wrote before its wire codec.
func TestPlanReplyTranscript(t *testing.T) {
	disk, err := cache.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(20000, 1, 2, WithCache(disk)).Handler())
	defer ts.Close()

	spec := vexsmt.CellSpec{Mix: "mmhh", Technique: "CCSI AS", Threads: 4, Predictor: "tage"}
	ref, err := vexsmt.New(vexsmt.WithScale(20000), vexsmt.WithSeed(1), vexsmt.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	cell, err := ref.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Counters.Branches == 0 {
		t.Fatal("tage cell counted no branches; the transcript would not cover the omitempty counters")
	}
	transcript := func(cached bool) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		c := cell
		c.Cached = cached
		for _, v := range []any{
			map[string]any{"cells": 1, "meta": ref.Meta()},
			c,
			map[string]any{"status": "done", "error": "", "completed": 1, "cells": 1},
		} {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}

	plan, err := json.Marshal(vexsmt.Plan{Cells: []vexsmt.CellSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	off := `{"cache":"off",` + string(plan[1:])
	submit := vexsmt.AppendPlanSubmit(nil, &vexsmt.PlanSubmit{Cells: []vexsmt.CellSpec{spec}, Scale: 20000, Seed: 1})
	for _, step := range []struct {
		name, body string
		cached     bool
	}{
		{"cache-off", off, false},
		{"cold", string(plan), false},
		{"warm", string(plan), true},
		{"coordinator submit", string(submit), true},
	} {
		resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := transcript(step.cached); string(got) != want {
			t.Fatalf("%s reply:\n got %s\nwant %s", step.name, got, want)
		}
	}
	if st := disk.Stats(); st.Hits != 2 || st.Puts != 1 {
		t.Fatalf("disk cache stats %+v, want the cold plan's put and the two warm plans' hits", st)
	}
}

// TestReadPlanRequestMatchesDecoder: the handler's body read returns what
// json.Decoder returns reading the same size-limited body, value and
// error, whether the strict submit parse takes the body or declines it.
func TestReadPlanRequestMatchesDecoder(t *testing.T) {
	submit := vexsmt.AppendPlanSubmit(nil, &vexsmt.PlanSubmit{Cells: []vexsmt.CellSpec{
		{Mix: "llll", Technique: "SMT", Threads: 2, Predictor: "tage"}}, Scale: 4000, Seed: 18446744073709551557, Cache: "off"})
	const limit = 1 << 20
	for _, body := range []string{
		string(submit),
		`{"cells":null,"scale":-1,"seed":0}`,
		`{"cells":[],"scale":1,"seed":2}`,
		string(submit) + "trailing bytes",
		string(submit) + strings.Repeat(" ", limit),
		`{"cells":[],"scale":1,"seed":2,"workloads":["` + strings.Repeat("x", limit) + `"]}`,
		`{"CELLS":[],"scale":1,"seed":2}`,
		`{"figures":["14"],"parallelism":3}`,
		`{"cells":[],"scale":1,"seed":18446744073709551616}`,
		`{"cells":[`,
		``,
	} {
		read := func() io.ReadCloser {
			return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(body)), limit)
		}
		var want planRequest
		werr := json.NewDecoder(read()).Decode(&want)
		got, err := readPlanRequest(read())
		short := body
		if len(short) > 80 {
			short = short[:80] + "..."
		}
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("body %q: error %v, json.Decoder %v", short, err, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: %+v, json.Decoder %+v", short, got, want)
		}
	}
}
