package vexsmt

import (
	"fmt"
	"slices"
	"strings"

	"vexsmt/internal/bpred"
	"vexsmt/internal/core"
	"vexsmt/internal/workload"
)

// Plan describes the work of one run. The three fields compose: the
// resolved plan is the deduplicated union of the named figures' grids, the
// explicit cells, and — when Sweep is set — every technique (see
// Techniques) swept over all nine mixes at the paper's 2- and 4-thread
// machines.
//
// Figure names are "13a", "13b", "14", "15", "16" or "all"; figures 13a
// and 13b plan no grid cells (13a is single-threaded, 13b is a table), but
// naming them keeps one Plan vocabulary across the streaming API and the
// figure renderer.
type Plan struct {
	Figures []string   `json:"figures,omitempty"`
	Cells   []CellSpec `json:"cells,omitempty"`
	Sweep   bool       `json:"sweep,omitempty"`

	// Predictors crosses the figure/sweep grid with branch-predictor
	// models: every planned grid cell is simulated once per named model.
	// Empty means ["static"] — the unexpanded grid. Explicit Cells are not
	// crossed; they carry their own Predictor field.
	Predictors []string `json:"predictors,omitempty"`

	// Workloads adds trace-backed cells to the grid: each named workload
	// (bare name or "name@sha256" reference, resolved against the
	// service's loaded corpus) is simulated under every technique at the
	// paper's 2- and 4-thread machines, crossed with the
	// Predictors axis exactly like the mix grid. Explicit Cells are not
	// crossed; they carry their own Workload field.
	Workloads []string `json:"workloads,omitempty"`
}

// AllFigures lists every figure name a Plan accepts, in paper order.
func AllFigures() []string { return []string{"13a", "13b", "14", "15", "16"} }

// ParseFigures expands a comma-separated figure list ("14,15", "all") into
// figure names, validating each against AllFigures. An empty list means
// every figure.
func ParseFigures(list string) ([]string, error) {
	return parseList("figure", list, AllFigures(), AllFigures(), func(f string) (string, bool) {
		return f, slices.Contains(AllFigures(), f)
	})
}

// ParsePredictors expands a comma-separated predictor list
// ("static,bimodal", "all") into canonical model names, validating each
// against Predictors(). An empty list means the default static front end.
func ParsePredictors(list string) ([]string, error) {
	return parseList("predictor", list, bpred.Names(), []string{bpred.Default}, func(name string) (string, bool) {
		canon, err := bpred.Canonical(name)
		return canon, err == nil
	})
}

// parseList is the comma-list grammar shared by the list flags: an empty
// list means dflt; otherwise tokens are trimmed, blank ones skipped,
// duplicates (after canon) dropped, and "all" expands to all. Every token
// is validated before "all" is honored — "all,bogus" must be an error,
// not a silent full run with a swallowed typo — and a list of only
// blanks (",") is an error.
func parseList(kind, list string, all, dflt []string, canon func(string) (string, bool)) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return dflt, nil
	}
	var out []string
	sawAll := false
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "":
		case tok == "all":
			sawAll = true
		default:
			name, ok := canon(tok)
			if !ok {
				return nil, fmt.Errorf("vexsmt: unknown %s %q (have %s, all)", kind, tok, strings.Join(all, ", "))
			}
			if !slices.Contains(out, name) {
				out = append(out, name)
			}
		}
	}
	if sawAll {
		return all, nil
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("vexsmt: empty %s list %q", kind, list)
	}
	return out, nil
}

// canonPredictor validates a public predictor name and maps it to the
// internal cell spelling (see internalPredictor).
func canonPredictor(name string) (string, error) {
	canon, err := bpred.Canonical(name)
	if err != nil {
		return "", fmt.Errorf("vexsmt: %w", err)
	}
	return internalPredictor(canon), nil
}

// paperMixes is the paper's nine mixes (internal type), copied once for
// planning, series assembly and the Mixes accessor. Never modify it.
var paperMixes = workload.Figure13b()

// paperThreads are the machine sizes every grid figure, sweep and trace
// workload is evaluated at: the paper's 2- and 4-thread machines.
var paperThreads = []int{2, 4}

// speedupFigure is one of the paper's speedup figures: each series is a
// technique's per-mix speedup over the figure's baseline, and series run
// thread-major in techs order. The figure plans the baseline followed by
// techs, so planning and series assembly read one list.
type speedupFigure struct {
	title    string
	baseline core.Technique
	techs    []core.Technique
}

var speedupFigures = map[string]speedupFigure{
	"14": {"Figure 14: Cluster-level split-issue (CCSI) speedups over CSMT", core.CSMT(),
		[]core.Technique{core.CCSI(core.CommNoSplit), core.CCSI(core.CommAlwaysSplit)}},
	"15": {"Figure 15: COSI and OOSI speedups over SMT", core.SMT(),
		[]core.Technique{
			core.COSI(core.CommNoSplit), core.COSI(core.CommAlwaysSplit),
			core.OOSI(core.CommNoSplit), core.OOSI(core.CommAlwaysSplit),
		}},
}

// figureTechniques returns the techniques a figure's grid measures, in
// plan order: a speedup figure's baseline and compared techniques, every
// technique for Figure 16, and none for the 13a/13b tables.
func figureTechniques(fig string) []core.Technique {
	if f, ok := speedupFigures[fig]; ok {
		return append([]core.Technique{f.baseline}, f.techs...)
	}
	if fig == "16" {
		return core.AllTechniques()
	}
	return nil
}

// gridCells enumerates techs over the nine mixes at the paper's thread
// counts, thread-major then technique then mix, with the static
// predictor.
func gridCells(techs []core.Technique) []CellSpec {
	var out []CellSpec
	for _, threads := range paperThreads {
		for _, t := range techs {
			for _, mix := range paperMixes {
				out = append(out, CellSpec{Mix: mix.Label, Technique: t.Name(), Threads: threads})
			}
		}
	}
	return out
}

// distinct maps each distinct name through canon and returns the
// distinct results in first-seen order. A plan may repeat a name any
// number of times, so every axis is deduplicated before it is crossed:
// resolve's work is bounded by the vocabulary, not by the request.
func distinct(names []string, canon func(string) (string, error)) ([]string, error) {
	var out []string
	seenName := make(map[string]bool)
	seenCanon := make(map[string]bool)
	for _, n := range names {
		if seenName[n] {
			continue
		}
		seenName[n] = true
		c, err := canon(n)
		if err != nil {
			return nil, err
		}
		if !seenCanon[c] {
			seenCanon[c] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// planFigure validates one of a Plan's figure names ("all" included).
func planFigure(f string) (string, error) {
	if f != "all" && !slices.Contains(AllFigures(), f) {
		return "", fmt.Errorf("vexsmt: unknown figure %q (have %s, all)", f, strings.Join(AllFigures(), ", "))
	}
	return f, nil
}

// resolve turns a public Plan into its deduplicated canonical cells in
// first-seen order. The figure/sweep grid is crossed with the plan's
// Predictors axis (predictor-major, so one model's full grid streams
// before the next begins and paired comparisons complete early);
// explicit Cells carry their own Predictor and are never crossed.
// Figure names are validated exactly as ParseFigures does: every name is
// checked before "all" is honored.
func (s *Service) resolve(p Plan) ([]CellSpec, error) {
	figs, err := distinct(p.Figures, planFigure)
	if err != nil {
		return nil, err
	}
	if slices.Contains(figs, "all") {
		figs = AllFigures()
	}
	var grid []CellSpec
	for _, f := range figs {
		grid = append(grid, gridCells(figureTechniques(f))...)
	}
	if p.Sweep {
		grid = append(grid, gridCells(core.AllTechniques())...)
	}
	// Resolve workload names to full content references up front, so a
	// bad name fails the whole plan before anything simulates.
	wlRefs, err := distinct(p.Workloads, s.workloadRef)
	if err != nil {
		return nil, err
	}
	names := p.Predictors
	if len(names) == 0 {
		names = []string{bpred.Default}
	}
	preds, err := distinct(names, canonPredictor)
	if err != nil {
		return nil, err
	}
	var cells []CellSpec
	seen := make(map[CellSpec]bool)
	add := func(c CellSpec) {
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	for _, pred := range preds {
		for _, c := range grid {
			c.Predictor = pred
			add(c)
		}
		for _, ref := range wlRefs {
			for _, threads := range paperThreads {
				for _, t := range core.AllTechniques() {
					add(CellSpec{Workload: ref, Technique: t.Name(), Threads: threads, Predictor: pred})
				}
			}
		}
	}
	for _, spec := range p.Cells {
		c, err := s.canon(spec)
		if err != nil {
			return nil, err
		}
		add(c)
	}
	return cells, nil
}

// canon validates one CellSpec against the public vocabulary and the
// machine's limits and returns its canonical form (see CellSpec). A spec
// names either a mix or a trace workload, never both.
func (s *Service) canon(spec CellSpec) (CellSpec, error) {
	tech, err := core.ParseTechnique(spec.Technique)
	if err != nil {
		return CellSpec{}, fmt.Errorf("vexsmt: %w", err)
	}
	if spec.Threads < 1 || spec.Threads > core.MaxThreads {
		return CellSpec{}, fmt.Errorf("vexsmt: thread count %d out of range [1,%d]",
			spec.Threads, core.MaxThreads)
	}
	pred, err := canonPredictor(spec.Predictor)
	if err != nil {
		return CellSpec{}, err
	}
	c := CellSpec{Technique: tech.Name(), Threads: spec.Threads, Predictor: pred}
	if spec.Workload != "" {
		if spec.Mix != "" {
			return CellSpec{}, fmt.Errorf("vexsmt: cell names both mix %q and workload %q", spec.Mix, spec.Workload)
		}
		c.Workload, err = s.workloadRef(spec.Workload)
		return c, err
	}
	mix, err := workload.MixByLabel(spec.Mix)
	if err != nil {
		return CellSpec{}, fmt.Errorf("vexsmt: %w", err)
	}
	c.Mix = mix.Label
	return c, nil
}
