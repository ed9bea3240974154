package vexsmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"vexsmt/internal/stats"
)

// SchemaVersion is the version of the JSON results schema this package
// emits. Decoding rejects any other version: the schema is a wire contract,
// and silently reinterpreting a foreign layout is worse than failing.
const SchemaVersion = 1

// Counters is the public mirror of one simulation's raw counters. Field
// meanings follow the paper's evaluation section; every derived metric the
// figures report (IPC, waste, miss rates) recomputes from these.
type Counters struct {
	Cycles       int64 `json:"cycles"`
	Instrs       int64 `json:"instrs"`
	Ops          int64 `json:"ops"`
	IssueSlots   int64 `json:"issue_slots"`
	EmptyCycles  int64 `json:"empty_cycles"`
	MergedCycles int64 `json:"merged_cycles"`
	SplitInstrs  int64 `json:"split_instrs"`

	ICacheAccesses int64 `json:"icache_accesses"`
	ICacheMisses   int64 `json:"icache_misses"`
	DCacheAccesses int64 `json:"dcache_accesses"`
	DCacheMisses   int64 `json:"dcache_misses"`

	FetchStallCycles   int64 `json:"fetch_stall_cycles"`
	MemStallCycles     int64 `json:"mem_stall_cycles"`
	BranchStallCycles  int64 `json:"branch_stall_cycles"`
	MemPortStallCycles int64 `json:"mem_port_stall_cycles"`

	ContextSwitches int64 `json:"context_switches"`
	Respawns        int64 `json:"respawns"`

	// Branch-predictor counters; zero (and omitted from JSON) under the
	// default static front end, which keeps static exports byte-identical
	// to documents produced before the predictor axis existed.
	Branches          int64 `json:"branches,omitempty"`
	BranchMispredicts int64 `json:"branch_mispredicts,omitempty"`
}

func countersFromRun(r *stats.Run) Counters {
	return Counters{
		Cycles:       r.Cycles,
		Instrs:       r.Instrs,
		Ops:          r.Ops,
		IssueSlots:   r.IssueSlots,
		EmptyCycles:  r.EmptyCycles,
		MergedCycles: r.MergedCycles,
		SplitInstrs:  r.SplitInstrs,

		ICacheAccesses: r.ICacheAccesses,
		ICacheMisses:   r.ICacheMisses,
		DCacheAccesses: r.DCacheAccesses,
		DCacheMisses:   r.DCacheMisses,

		FetchStallCycles:   r.FetchStallCycles,
		MemStallCycles:     r.MemStallCycles,
		BranchStallCycles:  r.BranchStallCycles,
		MemPortStallCycles: r.MemPortStallCycles,

		ContextSwitches: r.ContextSwitches,
		Respawns:        r.Respawns,

		Branches:          r.Branches,
		BranchMispredicts: r.BranchMispredicts,
	}
}

// CellResult is one completed grid cell: the cell's identity (the
// embedded CellSpec, whose fields inline into the JSON at the same
// position and with the same tags), the deterministic seed the cell ran
// under, and its counters. Its Predictor carries the internal canonical
// spelling ("" for static) and its Workload the full "name@sha256"
// reference; workload cells leave Mix empty. Err is set instead of
// Counters when the cell failed.
//
// Cached is a transport-level hint — the result was recalled from a
// content-addressed cache rather than simulated — and is not part of the
// result's identity: cached and simulated results are bit-identical by
// contract, so Canonicalize and Merge clear the flag before results are
// compared, deduplicated or exported.
type CellResult struct {
	CellSpec
	Seed     uint64   `json:"seed"`
	IPC      float64  `json:"ipc"`
	Counters Counters `json:"counters"`
	Cached   bool     `json:"cached,omitempty"`
	Err      string   `json:"error,omitempty"`
}

// SpeedupPct returns the percentage IPC speedup of tech over base, the
// arithmetic behind the paper's Figures 14 and 15. Cells with a zero-IPC
// base yield 0.
func SpeedupPct(tech, base CellResult) float64 {
	if base.IPC == 0 {
		return 0
	}
	return (tech.IPC/base.IPC - 1) * 100
}

// RunMeta records what produced a ResultSet: schema version and the
// reproduction triple (seed, scale, parallelism). Seed and scale pin the
// exact bits; parallelism is informational only — it never changes results.
// Techniques is the comma-joined technique list of the producing service
// (Techniques(), Figure 16 order), so a merger can refuse to combine
// decoded results from a build that disagrees about what the grid even
// is. It is kept a single string so RunMeta stays comparable.
type RunMeta struct {
	SchemaVersion int    `json:"schema_version"`
	Seed          uint64 `json:"seed"`
	Scale         int64  `json:"scale"`
	Parallelism   int    `json:"parallelism"`
	Techniques    string `json:"techniques,omitempty"`
}

// ResultSet is the batch results document: metadata plus cells in the
// canonical cell order (see Sort) so equal runs encode byte-identically.
type ResultSet struct {
	Meta  RunMeta      `json:"meta"`
	Cells []CellResult `json:"cells"`
}

// Sort orders the cells canonically: (mix, workload, technique, threads,
// predictor), with the default predictor and synthetic workload first
// (see CellSpec.less). Collect returns sorted sets already; producers
// that accumulate cells in completion order (e.g. a streaming server)
// call this before encoding.
func (rs *ResultSet) Sort() {
	sort.Slice(rs.Cells, func(i, j int) bool { return rs.Cells[i].less(rs.Cells[j].CellSpec) })
}

// Canonicalize rewrites rs into its canonical form: cells in canonical
// order (see Sort), the schema version stamped, and the
// informational fields — parallelism and the per-cell Cached hints —
// zeroed. Two runs of the same plan, seed and scale encode byte-
// identically after Canonicalize no matter how many processes, worker
// pools or cache hits produced them — this is the form distributed
// results are diffed in, and it is what makes a warm-cache export
// byte-identical to a cold one.
func (rs *ResultSet) Canonicalize() {
	rs.Meta.SchemaVersion = SchemaVersion
	rs.Meta.Parallelism = 0
	for i := range rs.Cells {
		rs.Cells[i].Cached = false
	}
	rs.Sort()
}

// Merge combines rs and others into a new canonical ResultSet without
// mutating its inputs. Sets must agree on schema version, seed, scale and
// technique set — a merge across any of those is a merge across different
// experiments, and is rejected. A cell appearing in more than one set is
// deduplicated when the copies are bit-identical and is a conflict error
// otherwise: per-cell seeds make equal cells inevitable, so a mismatch
// means one producer is broken. The merged set is Canonicalized, so
// merging disjoint shards of a plan yields exactly the bytes a
// single-process Collect of that plan canonicalizes to.
func (rs *ResultSet) Merge(others ...*ResultSet) (*ResultSet, error) {
	merged := &ResultSet{Meta: rs.Meta}
	seen := make(map[CellSpec]CellResult, len(rs.Cells))
	add := func(set *ResultSet) error {
		if set.Meta.SchemaVersion != rs.Meta.SchemaVersion {
			return fmt.Errorf("vexsmt: merge: schema version %d vs %d",
				set.Meta.SchemaVersion, rs.Meta.SchemaVersion)
		}
		if set.Meta.Seed != rs.Meta.Seed {
			return fmt.Errorf("vexsmt: merge: seed %d vs %d", set.Meta.Seed, rs.Meta.Seed)
		}
		if set.Meta.Scale != rs.Meta.Scale {
			return fmt.Errorf("vexsmt: merge: scale 1/%d vs 1/%d", set.Meta.Scale, rs.Meta.Scale)
		}
		if set.Meta.Techniques != rs.Meta.Techniques {
			return fmt.Errorf("vexsmt: merge: technique set %q vs %q",
				set.Meta.Techniques, rs.Meta.Techniques)
		}
		for _, c := range set.Cells {
			// The Cached hint is transport metadata, not result identity: a
			// cell recalled from cache on one backend and simulated on
			// another must deduplicate, not conflict.
			c.Cached = false
			if prev, ok := seen[c.CellSpec]; ok {
				if prev != c {
					return fmt.Errorf("vexsmt: merge: conflicting duplicates of cell %s", c.CellSpec)
				}
				continue
			}
			seen[c.CellSpec] = c
			merged.Cells = append(merged.Cells, c)
		}
		return nil
	}
	if err := add(rs); err != nil {
		return nil, err
	}
	for _, set := range others {
		if err := add(set); err != nil {
			return nil, err
		}
	}
	merged.Canonicalize()
	return merged, nil
}

// EncodeResults writes rs as schema-versioned JSON. The stored schema
// version is forced to SchemaVersion regardless of what rs carries.
func EncodeResults(w io.Writer, rs *ResultSet) error {
	rs.Meta.SchemaVersion = SchemaVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// EncodeToFile canonicalizes rs (see Canonicalize) and writes it to path
// as schema-versioned JSON, the shared export path of paperbench and
// vexsmtctl: any two exports of the same experiment diff clean no matter
// which tool or how many shards produced them.
func EncodeToFile(path string, rs *ResultSet) error {
	rs.Canonicalize()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodeResults(f, rs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DecodeResults parses a schema-versioned JSON results document, rejecting
// any schema version other than SchemaVersion.
func DecodeResults(r io.Reader) (*ResultSet, error) {
	var rs ResultSet
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rs); err != nil {
		return nil, fmt.Errorf("vexsmt: decode results: %w", err)
	}
	if rs.Meta.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("vexsmt: results schema version %d, want %d",
			rs.Meta.SchemaVersion, SchemaVersion)
	}
	return &rs, nil
}

// Fig13Row is one benchmark of the paper's Figure 13(a) characterization:
// measured and paper-reported IPC with real (IPCr) and perfect (IPCp)
// memory.
type Fig13Row struct {
	Name      string  `json:"name"`
	Class     string  `json:"class"` // "l", "m" or "h" ILP class
	PaperIPCr float64 `json:"paper_ipcr"`
	PaperIPCp float64 `json:"paper_ipcp"`
	IPCr      float64 `json:"ipcr"`
	IPCp      float64 `json:"ipcp"`
}

// FigureSeries is one bar group of Figures 14/15: per-workload speedup of
// a technique over its baseline at one thread count.
type FigureSeries struct {
	Label     string    `json:"label"`
	Technique string    `json:"technique"`
	Baseline  string    `json:"baseline"`
	Threads   int       `json:"threads"`
	Workloads []string  `json:"workloads"`
	Pct       []float64 `json:"pct"`
	Avg       float64   `json:"avg"`
}

// IPCPoint is one bar of Figure 16: a technique's IPC averaged over the
// nine workloads at one thread count.
type IPCPoint struct {
	Technique string  `json:"technique"`
	Threads   int     `json:"threads"`
	IPC       float64 `json:"ipc"`
}

// ScalePoint is one point of a thread-count scaling study.
type ScalePoint struct {
	Threads int     `json:"threads"`
	IPC     float64 `json:"ipc"`
}
