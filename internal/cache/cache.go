// Package cache implements the set-associative cache model used for the
// instruction and data caches of the base architecture: the paper assumes a
// single-level 64 KB 4-way set-associative cache with a 20-cycle miss
// penalty for both ICache and DCache (no L2), Section VI-A.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes a cache geometry.
type Config struct {
	SizeBytes   int // total capacity
	LineBytes   int // line (block) size
	Ways        int // associativity
	MissPenalty int // cycles added on a miss
}

// Paper64KB4Way is the paper's cache configuration. The paper does not state
// the line size; 64-byte lines are the ST200 documented line size.
var Paper64KB4Way = Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, MissPenalty: 20}

// Validate checks the configuration for consistency (power-of-two geometry).
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by way size", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if sets == 1 && c.LineBytes == 1 {
		// The tag would be the whole 64-bit address, leaving no key for
		// an invalid way.
		return fmt.Errorf("cache: a single set of 1-byte lines is not supported")
	}
	return nil
}

// Stats accumulates cache accesses.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses (0 when no accesses have happened).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement. It models tag
// state only (no data): the simulator needs hit/miss timing, while data
// correctness is owned by the functional machine's flat memory.
//
// Each way is one 16-byte line, and a set's ways are contiguous, so a
// lookup in the paper's 4-way cache reads one 64-byte host cache line.
type Cache struct {
	cfg      Config
	ways     int
	lineBits uint
	setBits  uint
	setMask  uint64
	lines    []line // sets*ways entries, set-major
	clock    uint64
	stats    Stats
}

// line is one way of a set. key is the tag plus one, so the zero line is
// invalid; the tag has at most 63 bits, since Validate rejects the one
// geometry with neither a line-offset nor a set bit. stamp orders valid
// lines by recency, larger = more recent; the clock is 64-bit so stamps
// never wrap.
type line struct {
	key   uint64
	stamp uint64
}

// New builds a cache from a validated configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	return &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		lines:    make([]line, sets*cfg.Ways),
	}, nil
}

// MustNew is New but panics on configuration error; for tests and fixed
// known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// lookup returns addr's set and its line key.
func (c *Cache) lookup(addr uint64) (set []line, key uint64) {
	l := addr >> c.lineBits
	base := int(l&c.setMask) * c.ways
	return c.lines[base : base+c.ways : base+c.ways], l>>c.setBits + 1
}

// Access looks up addr, updating LRU state and allocating on miss
// (write-allocate for stores, which matches a blocking first-level cache
// with fetch-on-write). It returns true on hit. The victim is the last
// invalid way, else the first way with the smallest stamp.
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	set, key := c.lookup(addr)
	c.clock++
	victim, victimStamp := 0, set[0].stamp
	for w := range set {
		l := &set[w]
		if l.key == key {
			l.stamp = c.clock
			return true
		}
		if l.key == 0 {
			victim, victimStamp = w, 0
		} else if l.stamp < victimStamp {
			victim, victimStamp = w, l.stamp
		}
	}
	c.stats.Misses++
	set[victim] = line{key: key, stamp: c.clock}
	return false
}

// AccessPenalty performs Access and returns the stall penalty in cycles:
// 0 on hit, MissPenalty on miss.
func (c *Cache) AccessPenalty(addr uint64) int {
	if c.Access(addr) {
		return 0
	}
	return c.cfg.MissPenalty
}

// Probe reports whether addr currently hits without touching LRU or
// statistics and without allocating.
func (c *Cache) Probe(addr uint64) bool {
	set, key := c.lookup(addr)
	for w := range set {
		if set[w].key == key {
			return true
		}
	}
	return false
}

// Flush invalidates all lines and clears statistics. Used at context-switch
// points when simulating cold-cache policies and between benchmark runs.
func (c *Cache) Flush() {
	c.Invalidate()
	c.stats = Stats{}
}

// Invalidate clears tag state but keeps accumulated statistics.
func (c *Cache) Invalidate() {
	clear(c.lines)
	c.clock = 0
}
