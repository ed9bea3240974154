package vexsmt

import (
	"fmt"

	"vexsmt/internal/bpred"
	"vexsmt/internal/rng"
)

// CellSpec names one grid cell by its public identity, and is the one
// place that identity is defined: CellResult embeds it, and every layer
// that compares, orders, keys or names cells goes through the methods in
// this file. A new axis is a new field here plus its lines in less,
// String, keyFields and seed.
//
// Technique names are the paper's ("SMT", "CCSI AS", ...); mixes are
// Figure 13(b) labels; predictor names come from internal/bpred
// ("static", "bimodal", "gshare", "tage"). An empty Predictor means
// "static" — the default front end is spelled as absence so static specs
// (and their JSON) are identical to pre-predictor ones.
//
// CellSpec is comparable: == is cell identity, and a CellSpec is the key
// of every per-cell map. Inside a Service, from plan to simulator, cells
// travel in canonical form: Predictor "" for static, Workload as the full
// "name@sha256" reference, and Technique as its canonical name ("CCSI NS",
// never the alias "CCSI").
type CellSpec struct {
	Mix       string `json:"mix"`
	Technique string `json:"technique"`
	Threads   int    `json:"threads"`
	Predictor string `json:"predictor,omitempty"`
	// Workload names a replayed trace workload instead of a synthetic
	// mix: either a bare workload name ("fir") resolved against the
	// service's loaded corpus, or a full "name@sha256" content reference
	// as produced by PlanCells — the reference form is what travels
	// between coordinator and daemons, so a shard only accepts the cell
	// when it holds byte-identical trace content. Mutually exclusive
	// with Mix. Empty (omitted from JSON) marks a synthetic-mix cell, so
	// mix-only documents match pre-workload ones byte for byte.
	Workload string `json:"workload,omitempty"`
}

// less is the canonical cell order: (mix, workload, technique, threads,
// predictor). The static predictor's and synthetic workload's empty
// spellings sort first, so pre-axis sets keep their historical order.
func (c CellSpec) less(o CellSpec) bool {
	if c.Mix != o.Mix {
		return c.Mix < o.Mix
	}
	if c.Workload != o.Workload {
		return c.Workload < o.Workload
	}
	if c.Technique != o.Technique {
		return c.Technique < o.Technique
	}
	if c.Threads != o.Threads {
		return c.Threads < o.Threads
	}
	return c.Predictor < o.Predictor
}

// String renders the cell for messages: "label/technique/NT", where the
// label is the workload reference of a trace cell and the mix otherwise,
// with "/predictor" appended for a modeled front end.
func (c CellSpec) String() string {
	name := fmt.Sprintf("%s/%s/%dT", c.label(), c.Technique, c.Threads)
	if pred := internalPredictor(c.Predictor); pred != "" {
		name += "/" + pred
	}
	return name
}

// label names the cell's workload: the trace reference of a trace cell,
// the mix otherwise.
func (c CellSpec) label() string {
	if c.Workload != "" {
		return c.Workload
	}
	return c.Mix
}

// PredictorName returns the cell's branch-predictor model in public
// spelling: "static" for the default front end.
func (c CellSpec) PredictorName() string { return publicPredictor(c.Predictor) }

// keyFields is the identity part of the cell's cache key (see CacheKey).
// Its layout is frozen for CacheEpoch 3: changing it orphans every stored
// entry, so any change here comes with an epoch bump.
func (c CellSpec) keyFields() string {
	return fmt.Sprintf("mix=%s|tech=%s|threads=%d|pred=%s|wl=%s",
		c.Mix, c.Technique, c.Threads, internalPredictor(c.Predictor), c.Workload)
}

// seed derives the deterministic seed of the canonical cell from the
// base seed, splitmix-style from {base, label, threads}. The technique —
// and the predictor, for the same reason — is deliberately excluded:
// cfg.Seed drives the synthetic instruction streams and the
// context-switch schedule, and the paper's speedup figures divide a
// technique's IPC by its baseline's on the *same* workload — a
// common-random-numbers pairing that small-scale runs need for
// stability. Every technique (and predictor) of a (label, threads) pair
// therefore shares one seed, so a predictor sweep measures front-end
// effects against an identical instruction stream, while parallel and
// serial execution stay bit-identical because each cell's simulator owns
// its entire random stream. A trace cell's content reference plays the
// mix label's role; it always contains '@' and a hex hash, so it can
// never collide with a four-letter mix label.
func (c CellSpec) seed(base uint64) uint64 {
	return rng.DeriveSeed(base, rng.StringToken(c.label()), uint64(c.Threads))
}

// internalPredictor and publicPredictor are the predictor's two
// spellings: cells carry "" for the default static front end, so static
// cells stay identical to pre-predictor ones everywhere they are
// compared, keyed or serialized; users and listings see "static".
func internalPredictor(name string) string {
	if name == bpred.Default {
		return ""
	}
	return name
}

func publicPredictor(pred string) string {
	if pred == "" {
		return bpred.Default
	}
	return pred
}
