// Package cache provides the content-addressed result cache behind
// repeated experiment sweeps: vexsmt.CellCache implementations (an
// in-memory LRU and an on-disk store). A cell's result is addressed by
// vexsmt.CacheKey — a canonical digest over the results schema
// version, base seed, scale and cell identity — so any two runs agreeing
// on those inputs share entries across processes, machines and time.
//
// Caching is strictly transparent: a hit returns exactly the bytes the
// simulation stored, so cached and simulated sweeps are byte-identical
// (the repo's property tests enforce it). The only invalidation
// mechanism is bumping vexsmt.SchemaVersion (wire-format changes) or
// vexsmt.CacheEpoch (simulator-behavior changes), either of which
// changes every key at once; there is no TTL and no per-entry
// invalidation, because a cell's result is a pure function of its key.
package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"vexsmt/pkg/vexsmt"
)

// Compile-time checks that both implementations satisfy the facade's
// cache contract.
var (
	_ vexsmt.CellCache = (*Memory)(nil)
	_ vexsmt.CellCache = (*Disk)(nil)
)

// ValidateMode checks a -cache flag value without side effects — for
// paths (like a remote vexsmtctl run) that must validate the flag but
// never open a local cache.
func ValidateMode(mode string) error {
	switch mode {
	case "on", "off":
		return nil
	default:
		return fmt.Errorf("cache: -cache %q: want on or off", mode)
	}
}

// FromFlag interprets the conventional -cache/-cache-dir CLI flag pair
// shared by paperbench, vexsmtctl and vexsmtd, so the three binaries
// cannot drift: mode "on" opens (creating if needed) the disk cache at
// dir (empty dir selects DefaultDir), mode "off" returns nil, and
// anything else is an error (see ValidateMode).
func FromFlag(mode, dir string) (*Disk, error) {
	if err := ValidateMode(mode); err != nil {
		return nil, err
	}
	if mode == "off" {
		return nil, nil
	}
	return NewDisk(dir)
}

// DefaultDir returns the conventional on-disk cache location,
// os.UserCacheDir()/vexsmt (~/.cache/vexsmt on Linux).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(base, "vexsmt"), nil
}

// counters is the shared hit/miss bookkeeping of both implementations.
type counters struct {
	hits, misses, puts, errs atomic.Int64
}

func (c *counters) stats() vexsmt.CacheStats {
	return vexsmt.CacheStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Puts:   c.puts.Load(),
		Errors: c.errs.Load(),
	}
}
