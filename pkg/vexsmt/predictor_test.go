package vexsmt

import (
	"context"
	"strings"
	"testing"
)

// This file tests the branch-predictor experiment axis: list parsing,
// plan crossing, result identity (the
// Predictor field in cells, sort order, merge keys), cache addressing, and
// the static byte-identity contract at the JSON layer.

func TestParsePredictors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
		err  bool
	}{
		{"", "static", false},
		{"static", "static", false},
		{"bimodal", "bimodal", false},
		{" TAGE ", "tage", false},
		{"static,bimodal", "static,bimodal", false},
		{"bimodal,bimodal", "bimodal", false},
		{"all", "static,bimodal,gshare,tage", false},
		{"bimodal,all", "static,bimodal,gshare,tage", false},
		{"perceptron", "", true},
		{"bimodal,perceptron", "", true},
		{"all,perceptron", "", true},
		{",", "", true},
	} {
		got, err := ParsePredictors(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("%q: error expected, got %v", tc.in, got)
			} else if tc.in != "," && !strings.Contains(err.Error(), "static, bimodal, gshare, tage") {
				// "," fails as an empty list, which has no model to name.
				t.Errorf("%q: error does not list the models: %v", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if s := strings.Join(got, ","); s != tc.want {
			t.Errorf("%q: got %q, want %q", tc.in, s, tc.want)
		}
	}
}

func TestPredictorAxisCrossesGrid(t *testing.T) {
	svc := testService(t)
	base, err := svc.PlanSize(Plan{Figures: []string{"14"}})
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Figures: []string{"14"}, Predictors: []string{"static", "bimodal"}}
	cells, err := svc.PlanCells(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*base {
		t.Fatalf("crossed plan has %d cells, want %d", len(cells), 2*base)
	}
	// Predictor-major order: one model's full grid before the next begins,
	// with static spelled "" in the public specs.
	for i, c := range cells {
		want := ""
		if i >= base {
			want = "bimodal"
		}
		if c.Predictor != want {
			t.Fatalf("cell %d predictor %q, want %q", i, c.Predictor, want)
		}
	}
	// Explicit cells are never crossed: they carry their own Predictor.
	cells, err = svc.PlanCells(Plan{
		Cells:      []CellSpec{{Mix: "llll", Technique: "SMT", Threads: 2, Predictor: "gshare"}},
		Predictors: []string{"bimodal"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Predictor != "gshare" {
		t.Fatalf("explicit cell was crossed: %+v", cells)
	}
	// "static" in a spec canonicalizes to the empty internal spelling.
	cells, err = svc.PlanCells(Plan{Cells: []CellSpec{
		{Mix: "llll", Technique: "SMT", Threads: 2, Predictor: "static"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Predictor != "" {
		t.Fatalf("static spec kept spelling %q, want \"\"", cells[0].Predictor)
	}
}

func TestPredictorCellResultsShareSeeds(t *testing.T) {
	svc := testService(t)
	rs, err := svc.Collect(context.Background(), Plan{Cells: []CellSpec{
		{Mix: "llll", Technique: "SMT", Threads: 2},
		{Mix: "llll", Technique: "SMT", Threads: 2, Predictor: "bimodal"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(rs.Cells))
	}
	var static, bimodal CellResult
	for _, c := range rs.Cells {
		if c.Predictor == "" {
			static = c
		} else {
			bimodal = c
		}
	}
	if static.Counters.Branches != 0 || static.Counters.BranchMispredicts != 0 {
		t.Fatalf("static cell counted branches: %+v", static.Counters)
	}
	if bimodal.Predictor != "bimodal" || bimodal.Counters.Branches == 0 {
		t.Fatalf("bimodal cell missing predictor identity or branches: %+v", bimodal)
	}
	if bimodal.Counters.BranchMispredicts >= bimodal.Counters.Branches {
		t.Fatalf("bimodal mispredicted everything: %+v", bimodal.Counters)
	}
	// Common-random-numbers pairing: the predictor axis reuses the cell
	// seed, so static-vs-modeled comparisons see identical instruction
	// streams.
	if static.Seed == 0 || static.Seed != bimodal.Seed {
		t.Fatalf("predictor variants have unpaired seeds: %x vs %x", static.Seed, bimodal.Seed)
	}
}

// TestStaticExportOmitsPredictorFields is the JSON half of the static
// byte-identity contract: a static-only export must not mention the
// predictor axis at all — no "predictor", no branch counters — so it
// diffs clean against documents written before the axis existed.
func TestStaticExportOmitsPredictorFields(t *testing.T) {
	svc := testService(t)
	rs, err := svc.Collect(context.Background(), Plan{Cells: []CellSpec{
		{Mix: "llll", Technique: "SMT", Threads: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	doc := encodeCanonical(t, rs)
	for _, field := range []string{"predictor", "branches", "branch_mispredicts"} {
		if strings.Contains(doc, field) {
			t.Errorf("static export mentions %q:\n%s", field, doc)
		}
	}
}

func TestSortPredictorTiebreak(t *testing.T) {
	rs := &ResultSet{Cells: []CellResult{
		{CellSpec: CellSpec{Mix: "llll", Technique: "SMT", Threads: 2, Predictor: "gshare"}},
		{CellSpec: CellSpec{Mix: "llll", Technique: "SMT", Threads: 2, Predictor: "bimodal"}},
		{CellSpec: CellSpec{Mix: "llll", Technique: "SMT", Threads: 2}},
		{CellSpec: CellSpec{Mix: "llll", Technique: "SMT", Threads: 4}},
	}}
	rs.Sort()
	got := make([]string, len(rs.Cells))
	for i, c := range rs.Cells {
		got[i] = c.Predictor
	}
	// Static ("") first within a thread count; threads dominate predictor.
	want := []string{"", "bimodal", "gshare", ""}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted predictors %q, want %q", got, want)
		}
	}
}

func TestMergeDistinguishesPredictorCells(t *testing.T) {
	svc := testService(t)
	cell := CellSpec{Mix: "llll", Technique: "SMT", Threads: 2}
	static, err := svc.Collect(context.Background(), Plan{Cells: []CellSpec{cell}})
	if err != nil {
		t.Fatal(err)
	}
	cell.Predictor = "bimodal"
	modeled, err := svc.Collect(context.Background(), Plan{Cells: []CellSpec{cell}})
	if err != nil {
		t.Fatal(err)
	}
	// Same (mix, technique, threads) under two predictors: distinct cells,
	// not a conflict.
	merged, err := static.Merge(modeled)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Cells) != 2 {
		t.Fatalf("merged %d cells, want 2", len(merged.Cells))
	}
	// A genuine conflict on a modeled cell names the predictor.
	conflicting := &ResultSet{Meta: modeled.Meta, Cells: append([]CellResult(nil), modeled.Cells...)}
	conflicting.Cells[0].IPC++
	if _, err := modeled.Merge(conflicting); err == nil {
		t.Fatal("conflicting modeled duplicates accepted")
	} else if !strings.Contains(err.Error(), "bimodal") {
		t.Fatalf("conflict error does not name the predictor: %v", err)
	}
}

func TestCacheKeyPredictorAddressing(t *testing.T) {
	meta := RunMeta{SchemaVersion: SchemaVersion, Seed: 1, Scale: 100}
	spec := CellSpec{Mix: "llll", Technique: "SMT", Threads: 2}
	base := CacheKey(meta, spec)
	spec.Predictor = "static"
	if CacheKey(meta, spec) != base {
		t.Error("\"static\" and \"\" address different cache entries")
	}
	spec.Predictor = "bimodal"
	if CacheKey(meta, spec) == base {
		t.Error("bimodal shares the static cache entry")
	}
}
