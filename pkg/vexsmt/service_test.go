package vexsmt

import (
	"context"
	"strings"
	"testing"
)

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"scale", WithScale(0)},
		{"parallelism", WithParallelism(0)},
	}
	for _, tc := range cases {
		if _, err := New(tc.opt); err == nil {
			t.Errorf("%s: invalid option accepted", tc.name)
		}
	}
}

func TestServiceDefaults(t *testing.T) {
	svc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if svc.Scale() != 100 || svc.Seed() != 1 || svc.Parallelism() < 1 {
		t.Fatalf("defaults: scale %d seed %d parallelism %d", svc.Scale(), svc.Seed(), svc.Parallelism())
	}
	meta := svc.Meta()
	if meta.SchemaVersion != SchemaVersion || meta.Scale != 100 {
		t.Fatalf("meta %+v", meta)
	}
	// Every export carries this string; it must not drift.
	if want := "CSMT,CCSI NS,CCSI AS,SMT,COSI NS,COSI AS,OOSI NS,OOSI AS"; meta.Techniques != want {
		t.Fatalf("meta techniques %q, want %q", meta.Techniques, want)
	}
	if got := Predictors(); strings.Join(got, ",") != "static,bimodal,gshare,tage" {
		t.Errorf("Predictors() = %v", got)
	}
	// A sweep expands every technique: 8 techniques x 9 mixes x {2,4}.
	n, err := svc.PlanSize(Plan{Sweep: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8*9*2 {
		t.Fatalf("sweep planned %d cells, want 144", n)
	}
}

func TestPlanVocabulary(t *testing.T) {
	svc := testService(t)
	if _, err := svc.PlanSize(Plan{Figures: []string{"nonsense"}}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if _, err := svc.PlanSize(Plan{Cells: []CellSpec{{Mix: "zzzz", Technique: "SMT", Threads: 2}}}); err == nil {
		t.Fatal("unknown mix accepted")
	}
	if _, err := svc.PlanSize(Plan{Cells: []CellSpec{{Mix: "mmhh", Technique: "SMT", Threads: 99}}}); err == nil {
		t.Fatal("absurd thread count accepted")
	}
	// Figures 14+15+16 dedup to the paper's 144-cell grid.
	n, err := svc.PlanSize(Plan{Figures: []string{"14", "15", "16"}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 144 {
		t.Fatalf("full grid plans %d cells, want 144", n)
	}
}

// TestPlanFiguresAll: a Plan accepts "all" exactly as ParseFigures does —
// the full paper grid, with every other name still validated.
func TestPlanFiguresAll(t *testing.T) {
	svc := testService(t)
	n, err := svc.PlanSize(Plan{Figures: []string{"all"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.PlanSize(Plan{Figures: AllFigures()})
	if err != nil {
		t.Fatal(err)
	}
	if n != 144 || n != want {
		t.Fatalf(`"all" plans %d cells, AllFigures() %d; want 144`, n, want)
	}
	_, err = svc.PlanSize(Plan{Figures: []string{"all", "bogus"}})
	if err == nil {
		t.Fatal(`"all","bogus" accepted`)
	}
	if strings.Contains(err.Error(), "experiments") {
		t.Fatalf("error names an internal package: %v", err)
	}
}

func TestParseFigures(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
		err  bool
	}{
		{"all", "13a,13b,14,15,16", false},
		{"", "13a,13b,14,15,16", false},
		{"14", "14", false},
		{"14,15", "14,15", false},
		{" 14 , 16 ", "14,16", false},
		{"14,14", "14", false},
		{"14,all", "13a,13b,14,15,16", false},
		{"14,bogus", "", true},
		{"all,bogus", "", true},
		{",", "", true},
	} {
		got, err := ParseFigures(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("%q: error expected, got %v", tc.in, got)
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

func TestAccessorLists(t *testing.T) {
	if got := Techniques(); len(got) != 8 || got[0] != "CSMT" {
		t.Fatalf("Techniques() = %v", got)
	}
	if got := Mixes(); len(got) != 9 || got[0] != "llll" {
		t.Fatalf("Mixes() = %v", got)
	}
	if got := AllFigures(); len(got) != 5 {
		t.Fatalf("AllFigures() = %v", got)
	}
}

func TestRenderFigureSmoke(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	text, err := svc.RenderFigure(ctx, "13b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "llll") {
		t.Fatalf("figure 13b table missing mixes:\n%s", text)
	}
	if _, err := svc.RenderFigure(ctx, "nonsense"); err == nil {
		t.Fatal("unknown figure rendered")
	}
}

func TestThreadScalingPublic(t *testing.T) {
	svc := testService(t)
	points, err := svc.ThreadScaling(context.Background(), "llmh", "SMT", []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	if !(points[0].IPC < points[1].IPC && points[1].IPC < points[2].IPC) {
		t.Fatalf("IPC not increasing with threads: %+v", points)
	}
	if _, err := svc.ThreadScaling(context.Background(), "llmh", "WAT", []int{1}); err == nil {
		t.Fatal("unknown technique accepted")
	}
}
