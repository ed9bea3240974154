package vexsmt

import (
	"fmt"
	"slices"
	"strings"

	"vexsmt/internal/bpred"
	"vexsmt/internal/core"
	"vexsmt/internal/experiments"
	"vexsmt/internal/workload"
)

// Plan describes the work of one run. The three fields compose: the
// resolved plan is the deduplicated union of the named figures' grids, the
// explicit cells, and — when Sweep is set — the service's technique set
// swept over all nine mixes at the paper's 2- and 4-thread machines.
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
	// service's loaded corpus) is simulated under every service technique
	// at the paper's 2- and 4-thread machines, crossed with the
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

// mixTable returns the paper's nine mixes (internal type; used by
// resolution and the Mixes accessor).
func mixTable() []workload.Mix { return workload.Figure13b() }

// resolve turns a public Plan into the internal deduplicated cell plan,
// enforcing the service's technique and predictor sets. The figure/sweep
// grid is crossed with the plan's Predictors axis (predictor-major, so
// one model's full grid streams before the next begins and paired
// comparisons complete early); explicit Cells carry their own Predictor
// and are never crossed.
func (s *Service) resolve(p Plan) (*experiments.Plan, error) {
	grid, err := experiments.PlanFigures(p.Figures...)
	if err != nil {
		return nil, fmt.Errorf("vexsmt: %w", err)
	}
	if p.Sweep {
		for _, threads := range []int{2, 4} {
			for _, t := range s.techniques {
				grid.AddMixSweep(t, threads)
			}
		}
	}
	preds := p.Predictors
	if len(preds) == 0 {
		preds = []string{bpred.Default}
	}
	// Resolve workload names to full content references up front, so a
	// bad name fails the whole plan before anything simulates.
	wlRefs := make([]string, 0, len(p.Workloads))
	for _, w := range p.Workloads {
		ref, err := s.workloadRef(w)
		if err != nil {
			return nil, err
		}
		wlRefs = append(wlRefs, ref)
	}
	ip := experiments.NewPlan()
	for _, name := range preds {
		pred, err := canonPredictor(name)
		if err != nil {
			return nil, err
		}
		for _, c := range grid.Cells() {
			c.Pred = pred
			ip.Add(c)
		}
		for _, ref := range wlRefs {
			for _, threads := range []int{2, 4} {
				for _, t := range s.techniques {
					ip.Add(experiments.Cell{WL: ref, Tech: t, Threads: threads, Pred: pred})
				}
			}
		}
	}
	for _, spec := range p.Cells {
		c, err := s.cell(spec)
		if err != nil {
			return nil, err
		}
		ip.Add(c)
	}
	for _, c := range ip.Cells() {
		if err := s.admit(c); err != nil {
			return nil, err
		}
	}
	return ip, nil
}

// cell validates one CellSpec against the public vocabulary and the
// machine's limits. A spec names either a mix or a trace workload, never
// both.
func (s *Service) cell(spec CellSpec) (experiments.Cell, error) {
	tech, err := core.ParseTechnique(spec.Technique)
	if err != nil {
		return experiments.Cell{}, fmt.Errorf("vexsmt: %w", err)
	}
	if spec.Threads < 1 || spec.Threads > core.MaxThreads {
		return experiments.Cell{}, fmt.Errorf("vexsmt: thread count %d out of range [1,%d]",
			spec.Threads, core.MaxThreads)
	}
	pred, err := canonPredictor(spec.Predictor)
	if err != nil {
		return experiments.Cell{}, err
	}
	if spec.Workload != "" {
		if spec.Mix != "" {
			return experiments.Cell{}, fmt.Errorf("vexsmt: cell names both mix %q and workload %q", spec.Mix, spec.Workload)
		}
		ref, err := s.workloadRef(spec.Workload)
		if err != nil {
			return experiments.Cell{}, err
		}
		return experiments.Cell{WL: ref, Tech: tech, Threads: spec.Threads, Pred: pred}, nil
	}
	mix, err := workload.MixByLabel(spec.Mix)
	if err != nil {
		return experiments.Cell{}, fmt.Errorf("vexsmt: %w", err)
	}
	return experiments.Cell{Mix: mix, Tech: tech, Threads: spec.Threads, Pred: pred}, nil
}

// admit enforces the service's technique and predictor sets on one
// resolved cell. resolve and RunCell share it, so a plan and a single
// cell are admitted alike.
func (s *Service) admit(c experiments.Cell) error {
	if !s.allowed(c.Tech) {
		return fmt.Errorf("vexsmt: technique %s not enabled on this service (WithTechniques)", c.Tech.Name())
	}
	if !slices.Contains(s.predictors, publicPredictor(c.Pred)) {
		return fmt.Errorf("vexsmt: predictor %s not enabled on this service (WithPredictors)", publicPredictor(c.Pred))
	}
	return nil
}

func (s *Service) allowed(t core.Technique) bool { return slices.Contains(s.techniques, t) }
