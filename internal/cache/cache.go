// Package cache implements the set-associative cache model used for the
// instruction and data caches of the base architecture: the paper assumes a
// single-level 64 KB 4-way set-associative cache with a 20-cycle miss
// penalty for both ICache and DCache (no L2), Section VI-A.
package cache

import (
	"fmt"
	"math/bits"
)

// Ways is the associativity of every cache: the paper's caches are 4-way.
const Ways = 4

// Config describes a cache geometry.
type Config struct {
	SizeBytes   int // total capacity
	LineBytes   int // line (block) size
	MissPenalty int // cycles added on a miss
}

// Paper64KB4Way is the paper's cache configuration. The paper does not state
// the line size; 64-byte lines are the ST200 documented line size.
var Paper64KB4Way = Config{SizeBytes: 64 << 10, LineBytes: 64, MissPenalty: 20}

// Validate checks the configuration for consistency (power-of-two geometry).
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	case c.SizeBytes%(c.LineBytes*Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by way size", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * Ways)
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
// lookup reads one 64-byte host cache line.
type Cache struct {
	cfg      Config
	lineBits uint
	setBits  uint
	setMask  uint64
	sets     []set
	clock    uint64
	stats    Stats
}

// set is one set's ways.
type set [Ways]line

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
	sets := cfg.SizeBytes / (cfg.LineBytes * Ways)
	return &Cache{
		cfg:      cfg,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		sets:     make([]set, sets),
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
func (c *Cache) lookup(addr uint64) (*set, uint64) {
	l := addr >> (c.lineBits & 63) // both shifts are below 64; the masks say so to the compiler
	return &c.sets[l&c.setMask], l>>(c.setBits&63) + 1
}

// Access looks up addr, updating LRU state and allocating on miss
// (write-allocate for stores, which matches a blocking first-level cache
// with fetch-on-write). It returns true on hit. The victim is the last
// invalid way, else the way with the smallest stamp.
//
// Which way of the set holds addr is the simulated program's random
// outcome, so the lookup never branches on it: it builds a hit mask from
// four straight-line compares and takes the way from TrailingZeros. The
// one branch is hit against miss, which the host predicts (misses are
// rare) and which keeps the victim search off the hit path: were every
// access to pick the victim from the stamps, each access to a set would
// wait on the previous one's stamp store.
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	s, key := c.lookup(addr)
	c.clock++
	if hit := s.match(key); hit != 0 {
		s[bits.TrailingZeros64(hit)&(Ways-1)].stamp = c.clock
		return true
	}
	c.stats.Misses++
	s[s.oldest()] = line{key: key, stamp: c.clock}
	return false
}

// match returns the mask of the ways holding key. Each if is a compare
// and a conditional move, not a branch, and the four of them keep match
// within the inlining budget (four cond.Bit terms exceed it).
func (s *set) match(key uint64) uint64 {
	var hit uint64
	if s[0].key == key {
		hit |= 1
	}
	if s[1].key == key {
		hit |= 2
	}
	if s[2].key == key {
		hit |= 4
	}
	if s[3].key == key {
		hit |= 8
	}
	return hit
}

// oldest returns the victim way: the one with the smallest stamp, ties
// going to the later way. An invalid line has stamp 0 and a valid one a
// distinct stamp of at least 1, so that is the last invalid way when
// there is one. It is a two-level tournament of conditional moves.
func (s *set) oldest() int {
	lo, loStamp := 0, s[0].stamp
	if s[1].stamp <= loStamp {
		lo, loStamp = 1, s[1].stamp
	}
	hi, hiStamp := 2, s[2].stamp
	if s[3].stamp <= hiStamp {
		hi, hiStamp = 3, s[3].stamp
	}
	if hiStamp <= loStamp {
		return hi
	}
	return lo
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
	s, key := c.lookup(addr)
	return s.match(key) != 0
}

// Flush invalidates all lines and clears statistics. Used at context-switch
// points when simulating cold-cache policies and between benchmark runs.
func (c *Cache) Flush() {
	c.Invalidate()
	c.stats = Stats{}
}

// Invalidate clears tag state but keeps accumulated statistics.
func (c *Cache) Invalidate() {
	clear(c.sets)
	c.clock = 0
}
