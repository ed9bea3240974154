package cache

import (
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{SizeBytes: 1 << 10, LineBytes: 64, MissPenalty: 20}
}

func TestConfigValidate(t *testing.T) {
	if err := Paper64KB4Way.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64},
		{SizeBytes: 1024, LineBytes: 48},
		{SizeBytes: 1000, LineBytes: 64},
		{SizeBytes: 3 << 8, LineBytes: 64}, // 3 sets
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(small())
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1004) {
		t.Fatal("same-line access missed")
	}
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(small()) // 4 ways, 4 sets, 64B lines; set stride = 256B
	// Five lines mapping to the same set: line ids 0, 4, 8, 12, 16.
	a0, a1, a2, a3, a4 := uint64(0), uint64(4*64), uint64(8*64), uint64(12*64), uint64(16*64)
	for _, a := range []uint64{a0, a1, a2, a3} {
		c.Access(a) // miss
	}
	c.Access(a0) // hit, a1 is now LRU
	c.Access(a4) // miss, evicts a1
	if !c.Probe(a0) {
		t.Fatal("a0 evicted, expected a1")
	}
	if c.Probe(a1) {
		t.Fatal("a1 still resident")
	}
	if !c.Access(a4) {
		t.Fatal("a4 not resident after allocation")
	}
}

func TestAccessPenalty(t *testing.T) {
	c := MustNew(small())
	if p := c.AccessPenalty(0x40); p != 20 {
		t.Fatalf("miss penalty = %d, want 20", p)
	}
	if p := c.AccessPenalty(0x40); p != 0 {
		t.Fatalf("hit penalty = %d, want 0", p)
	}
}

func TestProbeDoesNotAllocate(t *testing.T) {
	c := MustNew(small())
	if c.Probe(0x80) {
		t.Fatal("probe hit on empty cache")
	}
	st := c.Stats()
	if st.Accesses != 0 {
		t.Fatal("probe counted as access")
	}
	if c.Access(0x80) {
		t.Fatal("probe must not allocate")
	}
}

func TestFlushAndInvalidate(t *testing.T) {
	c := MustNew(small())
	c.Access(0x100)
	c.Invalidate()
	if c.Probe(0x100) {
		t.Fatal("line survived invalidate")
	}
	if c.Stats().Accesses != 1 {
		t.Fatal("invalidate cleared stats")
	}
	c.Flush()
	if c.Stats().Accesses != 0 {
		t.Fatal("flush kept stats")
	}
}

func TestWorkingSetFitsNoSteadyStateMisses(t *testing.T) {
	c := MustNew(Paper64KB4Way)
	// A 32 KB working set fits in a 64 KB cache: after one warm pass there
	// must be no further misses.
	const ws = 32 << 10
	for a := uint64(0); a < ws; a += 64 {
		c.Access(a)
	}
	before := c.Stats().Misses
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < ws; a += 64 {
			c.Access(a)
		}
	}
	if got := c.Stats().Misses; got != before {
		t.Fatalf("steady-state misses: %d -> %d", before, got)
	}
}

func TestWorkingSetExceedsCapacityThrashes(t *testing.T) {
	c := MustNew(Paper64KB4Way)
	// A 256 KB sequential working set with LRU misses on every access.
	const ws = 256 << 10
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < ws; a += 64 {
			c.Access(a)
		}
	}
	st := c.Stats()
	if st.MissRate() < 0.99 {
		t.Fatalf("LRU thrash miss rate = %v, want ~1", st.MissRate())
	}
}

func TestMissRateZeroOnNoAccesses(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("MissRate on empty stats != 0")
	}
}

func TestDistinctTagsSameSet(t *testing.T) {
	// Property: a line is always resident immediately after Access.
	c := MustNew(small())
	f := func(addr uint64) bool {
		c.Access(addr)
		return c.Probe(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialStreamMissRate(t *testing.T) {
	// Streaming through memory misses once per line: miss rate = 4/64 for
	// 4-byte accesses on 64-byte lines.
	c := MustNew(Paper64KB4Way)
	const n = 1 << 20
	for a := uint64(0); a < n; a += 4 {
		c.Access(a)
	}
	got := c.Stats().MissRate()
	want := 4.0 / 64.0
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("stream miss rate = %v, want ~%v", got, want)
	}
}
