package vexsmt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// CellCache is the content-addressed result cache a Service consults
// before simulating a cell and populates after. Implementations live in
// pkg/vexsmt/cache (in-memory LRU, on-disk); the interface is defined
// here so the facade can depend on the contract without importing the
// implementations (which import this package for the key vocabulary).
//
// Both methods must be safe for concurrent use, and both are best-effort:
// a Get miss or a dropped Put costs a re-simulation, never correctness.
// Whatever Put stored under a key, Get must return byte-identically or
// report a miss — the determinism contract (cached == simulated, bit for
// bit) rides on it, and the disk implementation enforces it with a
// self-checksum so a corrupted file degrades to a miss instead of
// corrupting results.
type CellCache interface {
	// Get returns the payload stored under key, or ok=false on a miss.
	Get(key string) ([]byte, bool)
	// Put stores a payload under key, overwriting any previous value.
	Put(key string, value []byte)
	// Stats returns the cache's counters since construction.
	Stats() CacheStats
}

// CacheStats counts cache traffic. Errors counts entries that existed but
// failed verification (corrupt files, short reads); every such entry also
// counts as a miss. PeerHits/PeerMisses count local misses that were then
// resolved (or not) by asking fleet peers for the key — they are only
// non-zero behind a peer-fill wrapper (see pkg/vexsmt/cache.WithPeerFill),
// and a peer hit is also a local miss in Misses: the local store was
// consulted first.
type CacheStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Puts       int64 `json:"puts"`
	Errors     int64 `json:"errors"`
	PeerHits   int64 `json:"peer_hits,omitempty"`
	PeerMisses int64 `json:"peer_misses,omitempty"`
}

// CacheSize is a cache's current footprint: live entries and their payload
// bytes. Both are sizing signals (placement, eviction pressure,
// the fleet /healthz rollup), not accounting — implementations sharing a
// directory between processes report their best local approximation.
type CacheSize struct {
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// CacheSizer is optionally implemented by CellCache implementations that
// can report their footprint. The server's /healthz checks for it; caches
// that cannot size themselves simply omit the numbers.
type CacheSizer interface {
	CacheSize() CacheSize
}

// CacheEpoch versions the simulator's *behavior* for cache addressing.
// SchemaVersion guards the JSON wire format; CacheEpoch guards the
// simulation semantics behind it: bump it whenever a change to
// internal/sim, internal/core, internal/synth, the workload tables or
// seed derivation alters any cell's counters without touching the
// schema. Either bump changes every CacheKey at once, so stale entries
// from the previous code can never be served as current results.
//
// Epoch 2: the key gained the predictor field and static runs gained the
// (always-zero) branch counters; entries written before the predictor
// axis existed must miss rather than collide with static cells.
//
// Epoch 3: the key gained the workload field — a trace-backed cell's
// "name@sha256" content reference, empty for synthetic mixes — so every
// epoch-2 entry misses rather than colliding with the extended identity.
// Folding the content hash into the key is what lets daemons that have
// never seen each other's corpus directories share results safely: equal
// key implies equal trace bytes, not merely an equal file name.
const CacheEpoch = 3

// CacheKey is the content address of one cell's result: a canonical
// digest over everything that determines the cell's bits — the results
// schema version, the simulator behavior epoch (CacheEpoch), the base
// seed, the scale divisor, and the cell identity (mix, technique,
// threads, predictor, workload reference) — and nothing that does not
// (parallelism, the technique list in RunMeta, shard placement).
// Two runs agreeing on those inputs may share each other's cache entries
// no matter which process, machine or thread count produced them; bumping
// SchemaVersion or CacheEpoch invalidates every prior entry at once,
// which is the cache's only invalidation mechanism.
//
// The predictor is keyed in its canonical internal spelling — "" for the
// default static front end — and "static" normalizes to "" here so a spec
// arriving with either spelling addresses the same entry. The workload is
// keyed as the full "name@sha256" content reference ("" for synthetic
// mixes), so the trace bytes — not the file name — address the entry.
// The cell's part of the key comes from CellSpec.keyFields.
func CacheKey(meta RunMeta, spec CellSpec) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("vexsmt/cell/v%d/e%d|seed=%d|scale=%d|%s",
		meta.SchemaVersion, CacheEpoch, meta.Seed, meta.Scale, spec.keyFields())))
	return hex.EncodeToString(sum[:])
}
