package cache

import (
	"encoding/binary"
	"slices"
	"testing"
)

// refCache is the true-LRU oracle FuzzCacheMatchesReference holds Cache
// to: each set is a slice of resident line ids, least recent first, and a
// line id is the whole address above the line offset.
type refCache struct {
	lineBytes, sets uint64
	penalty         int
	order           [][]uint64
	stats           Stats
}

func newRef(cfg Config) *refCache {
	sets := cfg.SizeBytes / (cfg.LineBytes * Ways)
	return &refCache{
		lineBytes: uint64(cfg.LineBytes), sets: uint64(sets),
		penalty: cfg.MissPenalty, order: make([][]uint64, sets),
	}
}

func (r *refCache) locate(addr uint64) (set uint64, line uint64, way int) {
	line = addr / r.lineBytes
	set = line % r.sets
	return set, line, slices.Index(r.order[set], line)
}

func (r *refCache) access(addr uint64) bool {
	r.stats.Accesses++
	set, line, way := r.locate(addr)
	o := r.order[set]
	if way >= 0 {
		r.order[set] = append(slices.Delete(o, way, way+1), line)
		return true
	}
	r.stats.Misses++
	if len(o) == Ways {
		o = slices.Delete(o, 0, 1)
	}
	r.order[set] = append(o, line)
	return false
}

func (r *refCache) probe(addr uint64) bool {
	_, _, way := r.locate(addr)
	return way >= 0
}

func (r *refCache) invalidate() {
	for s := range r.order {
		r.order[s] = r.order[s][:0]
	}
}

// fuzzConfig maps two fuzzed bytes onto a cache geometry: lines of 1 to
// 128 bytes and 1 to 32 sets.
func fuzzConfig(lineLog, setLog uint8) Config {
	line := 1 << (lineLog % 8)
	return Config{SizeBytes: line * Ways << (setLog % 6), LineBytes: line, MissPenalty: 7}
}

// FuzzCacheMatchesReference drives Cache and the true-LRU oracle with one
// fuzzed operation stream and requires the same answer from every
// Access, AccessPenalty and Probe, the same Stats after every operation,
// and the same residency for every address used once the stream ends.
// Each operation is three bytes: an opcode and a 16-bit line number,
// folded into a few times the cache's capacity so sets conflict. The
// opcode's high bits add an offset inside the line and an address bit
// from the top of the 64-bit range.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(6), uint8(3), []byte{0, 0, 0, 0, 8, 0, 0, 16, 0, 0, 24, 0, 0, 32, 0, 0, 0, 0, 1, 0, 0})
	f.Add(uint8(0), uint8(0), []byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 0, 1, 0, 3, 0, 0, 0, 1, 0})
	f.Add(uint8(2), uint8(0), []byte{0, 0, 0, 0, 1, 0, 0x40, 0, 0, 0x80, 1, 0, 4, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, lineLog, setLog uint8, ops []byte) {
		cfg := fuzzConfig(lineLog, setLog)
		c, err := New(cfg)
		if err != nil {
			if cfg.LineBytes == 1 && cfg.SizeBytes == Ways {
				return // the one geometry Validate rejects
			}
			t.Fatalf("%+v: %v", cfg, err)
		}
		ref := newRef(cfg)
		span := 3 * uint64(cfg.SizeBytes/cfg.LineBytes)
		var used []uint64
		for i := 0; i+3 <= len(ops); i += 3 {
			op := ops[i]
			addr := uint64(binary.LittleEndian.Uint16(ops[i+1:]))%span*ref.lineBytes +
				uint64(op>>3&7)%ref.lineBytes
			if op&0x40 != 0 {
				addr |= 1 << 63
			}
			switch op & 7 {
			case 0, 1, 5, 6:
				used = append(used, addr)
				if got, want := c.Access(addr), ref.access(addr); got != want {
					t.Fatalf("op %d: Access(%#x) = %v, want %v", i/3, addr, got, want)
				}
			case 2:
				used = append(used, addr)
				want := 0
				if !ref.access(addr) {
					want = ref.penalty
				}
				if got := c.AccessPenalty(addr); got != want {
					t.Fatalf("op %d: AccessPenalty(%#x) = %d, want %d", i/3, addr, got, want)
				}
			case 3:
				if got, want := c.Probe(addr), ref.probe(addr); got != want {
					t.Fatalf("op %d: Probe(%#x) = %v, want %v", i/3, addr, got, want)
				}
			case 4:
				c.Invalidate()
				ref.invalidate()
			case 7:
				c.Flush()
				ref.invalidate()
				ref.stats = Stats{}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("op %d: Stats = %+v, want %+v", i/3, c.Stats(), ref.stats)
			}
		}
		for _, addr := range used {
			if got, want := c.Probe(addr), ref.probe(addr); got != want {
				t.Fatalf("end: Probe(%#x) = %v, want %v", addr, got, want)
			}
		}
	})
}

// TestClockPastUint32 runs one 4-way set across the point where a 32-bit
// LRU clock wraps (2^32 accesses to one cache): a line filled just before
// it must still age out before lines used after it.
func TestClockPastUint32(t *testing.T) {
	c := MustNew(Paper64KB4Way)
	c.clock = 1<<32 - 2
	stride := uint64(Paper64KB4Way.SizeBytes / Ways) // same set
	a, b, d, e, fresh := uint64(0), stride, 2*stride, 3*stride, 4*stride
	for _, addr := range []uint64{a, b, d, e} { // a is stamped 2^32-1
		c.Access(addr)
	}
	for _, addr := range []uint64{b, d, e} {
		if !c.Access(addr) {
			t.Fatalf("%#x missed", addr)
		}
	}
	c.Access(fresh) // evicts the least recent line: a
	if c.Probe(a) {
		t.Error("the least recently used line survived")
	}
	for _, addr := range []uint64{b, d, e, fresh} {
		if !c.Probe(addr) {
			t.Errorf("%#x evicted instead of the least recently used line", addr)
		}
	}
}

// TestFullyAssociativeDistinctLines checks that a single-set cache tells
// adjacent lines apart (the tag once dropped the line id's low bit, which
// only the set index can restore).
func TestFullyAssociativeDistinctLines(t *testing.T) {
	c := MustNew(Config{SizeBytes: 256, LineBytes: 64, MissPenalty: 1})
	c.Access(0)
	if c.Probe(64) {
		t.Fatal("line 1 hits after only line 0 was accessed")
	}
	if err := (Config{SizeBytes: 4, LineBytes: 1}).Validate(); err == nil {
		t.Fatal("a single set of 1-byte lines was accepted")
	}
}
