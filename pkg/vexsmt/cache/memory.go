package cache

import (
	"container/list"
	"sync"

	"vexsmt/pkg/vexsmt"
)

// defaultMemoryEntries comfortably holds many full figure grids (144
// cells each, a few hundred bytes per entry) while bounding a long-lived
// server's memory.
const defaultMemoryEntries = 4096

// Memory is an in-process LRU cache: Get refreshes an entry's recency and
// Put evicts the least-recently-used entries beyond the capacity. It is
// safe for concurrent use and returns defensive copies, so callers can
// never corrupt a stored payload.
type Memory struct {
	mu    sync.Mutex
	max   int
	bytes int64      // sum of live payload lengths
	ll    *list.List // front = most recent; values are *memEntry
	idx   map[string]*list.Element
	counters
}

type memEntry struct {
	key string
	val []byte
}

// NewMemory builds an LRU cache holding at most maxEntries entries;
// maxEntries < 1 selects a default of 4096.
func NewMemory(maxEntries int) *Memory {
	if maxEntries < 1 {
		maxEntries = defaultMemoryEntries
	}
	return &Memory{
		max: maxEntries,
		ll:  list.New(),
		idx: make(map[string]*list.Element),
	}
}

// Get implements vexsmt.CellCache.
func (m *Memory) Get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.idx[key]
	if !ok {
		m.misses.Add(1)
		return nil, false
	}
	m.ll.MoveToFront(el)
	m.hits.Add(1)
	val := el.Value.(*memEntry).val
	return append([]byte(nil), val...), true
}

// Put implements vexsmt.CellCache.
func (m *Memory) Put(key string, value []byte) {
	cp := append([]byte(nil), value...)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store(key, cp)
	m.puts.Add(1)
}

// putIf stores a copy of value under key if valid() holds while the
// lock is held, so a caller can order the store against a concurrent
// drop (see Disk.Get). It touches no counter.
func (m *Memory) putIf(key string, value []byte, valid func() bool) {
	cp := append([]byte(nil), value...)
	m.mu.Lock()
	defer m.mu.Unlock()
	if valid() {
		m.store(key, cp)
	}
}

// store inserts or replaces key's entry with val, which it takes over,
// and evicts beyond the capacity. m.mu must be held.
func (m *Memory) store(key string, val []byte) {
	if el, ok := m.idx[key]; ok {
		e := el.Value.(*memEntry)
		m.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		m.ll.MoveToFront(el)
		return
	}
	m.idx[key] = m.ll.PushFront(&memEntry{key: key, val: val})
	m.bytes += int64(len(val))
	for m.ll.Len() > m.max {
		m.remove(m.ll.Back())
	}
}

// drop removes key's entry, if any. It touches no counter.
func (m *Memory) drop(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.idx[key]; ok {
		m.remove(el)
	}
}

// remove unlinks one entry. m.mu must be held.
func (m *Memory) remove(el *list.Element) {
	m.ll.Remove(el)
	e := el.Value.(*memEntry)
	m.bytes -= int64(len(e.val))
	delete(m.idx, e.key)
}

// Stats implements vexsmt.CellCache.
func (m *Memory) Stats() vexsmt.CacheStats { return m.stats() }

// CacheSize implements vexsmt.CacheSizer: live entries and their payload
// bytes (bookkeeping overhead excluded).
func (m *Memory) CacheSize() vexsmt.CacheSize {
	m.mu.Lock()
	defer m.mu.Unlock()
	return vexsmt.CacheSize{Entries: int64(m.ll.Len()), Bytes: m.bytes}
}

// Len returns the number of live entries (test instrumentation).
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}
