package vexsmt

import (
	"context"
	"runtime"
	"testing"
	"time"

	"vexsmt/internal/stats"
	"vexsmt/pkg/vexsmt/sched"
)

// quickScale keeps figure tests fast; statistical assertions are coarse.
const quickScale = 4000

func TestRunCellMemoizes(t *testing.T) {
	svc := testService(t, WithScale(quickScale))
	spec := CellSpec{Mix: "mmmm", Technique: "SMT", Threads: 2}
	a, err := svc.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second RunCell did not return the memoized result")
	}
	if svc.CellsSimulated() != 1 || svc.SimulationsRun() != 1 {
		t.Fatalf("cells = %d, simulations = %d, want 1 and 1", svc.CellsSimulated(), svc.SimulationsRun())
	}
}

// TestRunCellCanonicalizesAliases: an alias technique name and an
// explicit "static" predictor resolve to the canonical cell, so they
// share its memo entry, seed and cache key rather than simulating again.
func TestRunCellCanonicalizesAliases(t *testing.T) {
	svc := testService(t)
	ctx := context.Background()
	a, err := svc.RunCell(ctx, CellSpec{Mix: "llhh", Technique: "CCSI", Threads: 2, Predictor: "static"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.RunCell(ctx, CellSpec{Mix: "llhh", Technique: "CCSI NS", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.Technique != "CCSI NS" || a.Predictor != "" {
		t.Fatalf("alias cell %+v, canonical cell %+v", a.CellSpec, b.CellSpec)
	}
	if svc.SimulationsRun() != 1 {
		t.Fatalf("alias and canonical spelling simulated %d times, want 1", svc.SimulationsRun())
	}
}

func TestFigure13aRows(t *testing.T) {
	rows, err := testService(t, WithScale(quickScale)).Figure13a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	for _, r := range rows {
		if r.IPCr <= 0 || r.IPCp < r.IPCr*0.99 {
			t.Errorf("%s: IPCr %.2f IPCp %.2f", r.Name, r.IPCr, r.IPCp)
		}
	}
	// Class ordering must survive measurement: every h beats every l.
	var maxLow, minHigh float64 = 0, 99
	for _, r := range rows {
		if r.Class == "l" && r.IPCp > maxLow {
			maxLow = r.IPCp
		}
		if r.Class == "h" && r.IPCp < minHigh {
			minHigh = r.IPCp
		}
	}
	if maxLow >= minHigh {
		t.Errorf("ILP classes overlap: max low %.2f, min high %.2f", maxLow, minHigh)
	}
}

func TestSpeedupSeriesShape(t *testing.T) {
	svc := testService(t, WithScale(quickScale))
	f := speedupFigures["14"]
	s, err := svc.speedups(context.Background(), f.techs[1], f.baseline, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != 9 || len(s.Pct) != 9 {
		t.Fatalf("series covers %d workloads, want 9", len(s.Workloads))
	}
	if s.Label != "CCSI AS over CSMT, 4-Thread" {
		t.Fatalf("label %q", s.Label)
	}
	// The headline claim at 4 threads, coarse: positive average speedup.
	if s.Avg <= 0 {
		t.Errorf("CCSI AS average speedup %.2f%% not positive", s.Avg)
	}
}

func TestFigure14SeriesCount(t *testing.T) {
	svc := testService(t, WithScale(quickScale))
	series, err := svc.Figure14(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("%d series, want 4", len(series))
	}
	// 9 workloads x (CSMT + CCSI NS + CCSI AS) x 2 thread counts = 54 runs.
	if svc.CellsSimulated() != 54 {
		t.Fatalf("cells = %d, want 54", svc.CellsSimulated())
	}
}

func TestPlanDedupsAcrossFigures(t *testing.T) {
	svc := testService(t)
	for _, tc := range []struct {
		figs []string
		want int
	}{
		{[]string{"14"}, 54},              // (CSMT + CCSI NS + CCSI AS) x 2 thread counts x 9 mixes
		{[]string{"14", "15"}, 54 + 90},   // figure 15 adds (SMT + COSI/OOSI NS/AS) x 2 x 9
		{[]string{"14", "15", "16"}, 144}, // figure 16's eight techniques are all planned already
		{[]string{"14", "15", "16", "14"}, 144},
	} {
		n, err := svc.PlanSize(Plan{Figures: tc.figs})
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.want {
			t.Fatalf("figures %v plan %d cells, want %d", tc.figs, n, tc.want)
		}
	}
}

func TestPlanFiguresRejectsUnknown(t *testing.T) {
	svc := testService(t)
	if _, err := svc.PlanSize(Plan{Figures: []string{"14", "nonsense"}}); err == nil {
		t.Fatal("unknown figure accepted")
	}
	n, err := svc.PlanSize(Plan{Figures: []string{"13a", "13b"}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("figures 13a/13b planned %d grid cells, want 0", n)
	}
}

func TestPlanCellsMatchesPlanSizeAndOrder(t *testing.T) {
	svc := testService(t)
	plan := Plan{Figures: []string{"14", "15", "16"}}
	cells, err := svc.PlanCells(plan)
	if err != nil {
		t.Fatal(err)
	}
	n, err := svc.PlanSize(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != n {
		t.Fatalf("PlanCells %d vs PlanSize %d", len(cells), n)
	}
	seen := make(map[CellSpec]bool, len(cells))
	for _, c := range cells {
		if seen[c] {
			t.Fatalf("duplicate cell %+v in PlanCells", c)
		}
		seen[c] = true
	}
	again, err := svc.PlanCells(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatal("PlanCells order is not deterministic")
		}
	}
}

// TestRepeatedPlanNamesResolveOnce: a plan body may repeat a figure, a
// predictor (in any spelling) or a workload (by name or by reference) any
// number of times, and resolves to exactly the cells of the plan naming
// each once. Every axis is deduplicated before it is crossed, so the
// repeats cost a map lookup each, never a grid each.
func TestRepeatedPlanNamesResolveOnce(t *testing.T) {
	svc := workloadService(t, writeTestCorpus(t, "idct"))
	ref, err := svc.workloadRef("idct")
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.PlanCells(Plan{Figures: []string{"16"}, Predictors: []string{"tage"}, Workloads: []string{"idct"}})
	if err != nil {
		t.Fatal(err)
	}
	var big Plan
	for i := 0; i < 50000; i++ {
		if i < 20000 {
			big.Figures = append(big.Figures, "16")
		}
		big.Predictors = append(big.Predictors, []string{"tage", "TAGE"}[i%2])
		big.Workloads = append(big.Workloads, []string{"idct", ref}[i%2])
	}
	start := time.Now()
	got, err := svc.PlanCells(big)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("resolving the repeated plan took %s", d)
	}
	if len(got) != len(want) {
		t.Fatalf("repeated plan resolves to %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d is %s, want %s", i, got[i], want[i])
		}
	}
}

func TestCellSeedsPairedAndStable(t *testing.T) {
	cells, err := testService(t).PlanCells(Plan{Figures: []string{"16"}})
	if err != nil {
		t.Fatal(err)
	}
	// Seeds depend on the workload identity (mix, threads) only: distinct
	// across workload identities, shared across techniques so that
	// technique-vs-baseline comparisons are paired (common random numbers).
	type workloadKey struct {
		mix     string
		threads int
	}
	byWorkload := map[workloadKey]uint64{}
	bySeed := map[uint64]workloadKey{}
	for _, c := range cells {
		s := c.seed(1)
		if s != c.seed(1) {
			t.Fatalf("%s: seed not stable", c)
		}
		k := workloadKey{c.Mix, c.Threads}
		if prev, ok := byWorkload[k]; ok {
			if s != prev {
				t.Fatalf("%s: seed %x differs from its workload pair %x — comparison unpaired", c, s, prev)
			}
			continue
		}
		if prevK, dup := bySeed[s]; dup {
			t.Fatalf("seed collision between workloads %v and %v", k, prevK)
		}
		byWorkload[k] = s
		bySeed[s] = k
	}
	if len(byWorkload) != 18 { // 9 mixes x 2 thread counts
		t.Fatalf("%d distinct workload seeds, want 18", len(byWorkload))
	}
	// A different base seed must move every cell's seed.
	for _, c := range cells {
		if _, clash := bySeed[c.seed(2)]; clash {
			t.Fatalf("%s: base seed 2 collides with base seed 1 grid", c)
		}
	}
}

func TestConcurrentRunsSingleflight(t *testing.T) {
	// Hammer one cell from many goroutines: every caller must get the same
	// memoized *stats.Run and the service must simulate it exactly once.
	svc := testService(t)
	c := CellSpec{Mix: "mmmm", Technique: "SMT", Threads: 2}
	const callers = 16
	runs := make([]*stats.Run, callers)
	ctx := context.Background()
	err := sched.ForEach(ctx, callers, callers, func(i int) error {
		r, _, err := svc.run(ctx, c)
		runs[i] = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < callers; i++ {
		if runs[i] != runs[0] {
			t.Fatal("concurrent callers received different result pointers")
		}
	}
	if svc.CellsSimulated() != 1 || svc.SimulationsRun() != 1 {
		t.Fatalf("cells = %d, simulations = %d, want 1 and 1", svc.CellsSimulated(), svc.SimulationsRun())
	}
}

func TestFigure16OrderAndShape(t *testing.T) {
	points, err := testService(t, WithScale(quickScale)).Figure16(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 {
		t.Fatalf("%d points, want 16", len(points))
	}
	for i, p := range points {
		if want := Techniques()[i%8]; p.Technique != want || p.Threads != 2+2*(i/8) {
			t.Fatalf("point %d is %s %dT, want %s %dT", i, p.Technique, p.Threads, want, 2+2*(i/8))
		}
	}
	get := func(name string, threads int) float64 {
		for _, p := range points {
			if p.Technique == name && p.Threads == threads {
				return p.IPC
			}
		}
		t.Fatalf("missing point %s %dT", name, threads)
		return 0
	}
	// Qualitative shape of Figure 16 at 4 threads, where effects are
	// largest: operation-level merging beats cluster-level; split-issue
	// beats no-split within each merge policy.
	if !(get("SMT", 4) > get("CSMT", 4)) {
		t.Error("SMT <= CSMT at 4T")
	}
	if !(get("CCSI AS", 4) > get("CSMT", 4)) {
		t.Error("CCSI AS <= CSMT at 4T")
	}
	if !(get("OOSI AS", 4) > get("SMT", 4)) {
		t.Error("OOSI AS <= SMT at 4T")
	}
	// 4 threads outperform 2 threads for every technique.
	for _, tech := range Techniques() {
		if !(get(tech, 4) > get(tech, 2)) {
			t.Errorf("%s: 4T not above 2T", tech)
		}
	}
	// Split-issue narrows the CSMT-to-SMT gap (the paper's 27% -> 13%
	// observation, qualitatively).
	gapNoSplit := get("SMT", 4) / get("CSMT", 4)
	gapSplit := get("SMT", 4) / get("CCSI AS", 4)
	if !(gapSplit < gapNoSplit) {
		t.Errorf("CCSI AS did not narrow the CSMT/SMT gap: %.3f vs %.3f", gapSplit, gapNoSplit)
	}
}

func TestWaiterSurvivesCancelledLeader(t *testing.T) {
	// One plan's cancellation must not poison another plan sharing cells:
	// a waiter with a live context that piggy-backed on a cancelled leader
	// retries and gets a real result, never the foreign context error.
	spec := CellSpec{Mix: "mmmm", Technique: "SMT", Threads: 2}
	for round := 0; round < 8; round++ {
		svc := testService(t)
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		leaderDone := make(chan struct{})
		go func() {
			defer close(leaderDone)
			_, _ = svc.RunCell(cancelled, spec) // may or may not win the leadership race
		}()
		r, err := svc.RunCell(context.Background(), spec)
		<-leaderDone
		if err != nil {
			t.Fatalf("round %d: live waiter got %v", round, err)
		}
		if r.IPC <= 0 {
			t.Fatalf("round %d: live waiter got an empty run", round)
		}
	}
}

func TestThreadScaling(t *testing.T) {
	svc := testService(t, WithScale(quickScale))
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
}

func TestStreamCancellation(t *testing.T) {
	// Cancelling mid-grid must close the stream promptly and leave no
	// workers behind. Scale 50 makes every cell slow enough (~4M instrs)
	// that the grid cannot finish before the cancel lands.
	before := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(context.Background())
	svc := testService(t, WithScale(50), WithParallelism(4))
	ch, err := svc.Stream(cctx, Plan{Figures: []string{"14"}})
	if err != nil {
		t.Fatal(err)
	}
	<-time.After(10 * time.Millisecond)
	cancel()
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-ch:
		case <-deadline:
			t.Fatal("stream did not close within 5s of cancellation")
		}
	}
	// Workers unwind asynchronously after the channel closes; poll briefly.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before stream, %d after drain", before, runtime.NumGoroutine())
}

func TestCancelledCellNotMemoized(t *testing.T) {
	svc := testService(t)
	spec := CellSpec{Mix: "mmmm", Technique: "SMT", Threads: 2}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.RunCell(cancelled, spec); err == nil {
		t.Fatal("cancelled RunCell returned no error")
	}
	if n := svc.CellsSimulated(); n != 0 {
		t.Fatalf("cancelled cell stayed memoized: %d cells", n)
	}
	r, err := svc.RunCell(context.Background(), spec)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if r.IPC <= 0 {
		t.Fatal("retried cell produced no work")
	}
}
