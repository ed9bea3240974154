package main

import "testing"

func sp(name, id string, start, end int64) span {
	return span{Name: name, ID: id, Start: start, End: end, Parent: -1}
}

func selfByName(t *testing.T, spans []span) map[string]int64 {
	t.Helper()
	self, stray := selfTimes(spans)
	if stray != 0 {
		t.Fatalf("stray = %d, want 0", stray)
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name+"/"+s.ID] += self[i]
	}
	return out
}

// Properly nested spans: self time is duration minus the children's cover.
func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		sp("shard.run", "k", 0, 100),
		sp("http.submit", "k", 10, 50),
		sp("server.submit", "k", 20, 30),
		sp("cache.get_hit", "k", 22, 26),
		sp("http.stream", "k", 60, 90),
		sp("server.stream", "k", 61, 89),
	}
	got := selfByName(t, spans)
	want := map[string]int64{
		"shard.run/k":     100 - 40 - 30,
		"http.submit/k":   40 - 10,
		"server.submit/k": 10 - 4,
		"cache.get_hit/k": 4,
		"http.stream/k":   30 - 28,
		"server.stream/k": 28,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("self(%s) = %d, want %d", k, got[k], w)
		}
	}
}

// A simulation in the job's goroutine starts before the stream handler
// that waits on it: the overlap is simulation time, and the cell's self
// times still sum to its Run span.
func TestSelfTimesAsyncSimulation(t *testing.T) {
	spans := []span{
		sp("shard.run", "k", 0, 100),
		sp("http.submit", "k", 10, 30),
		sp("server.submit", "k", 12, 20),
		sp("cache.get_miss", "k", 33, 35),
		sp("sim.run", "k", 35, 80),
		sp("cache.put", "k", 80, 85),
		sp("http.stream", "k", 40, 90),
		sp("server.stream", "k", 42, 88),
		// Another cell, interleaved in time, must not interfere.
		sp("shard.run", "other", 5, 95),
		sp("sim.run", "other", 6, 94),
	}
	got := selfByName(t, spans)
	want := map[string]int64{
		"sim.run/k":        45,
		"cache.get_miss/k": 2,
		"cache.put/k":      5,
		"server.stream/k":  3, // 85..88
		"http.stream/k":    2, // 88..90; 40..42 is simulation
		"server.submit/k":  8,
		"http.submit/k":    12,
		"shard.run/k":      100 - 20 - 57,
		"sim.run/other":    88,
		"shard.run/other":  2,
	}
	var total int64
	for k, w := range want {
		if got[k] != w {
			t.Errorf("self(%s) = %d, want %d", k, got[k], w)
		}
		if k[len(k)-2:] == "/k" {
			total += got[k]
		}
	}
	if total != 100 {
		t.Errorf("cell k self times sum to %d, want its Run span's 100", total)
	}
}

// The fetch's far side (peer A's handler and cache) is nested inside the
// fetch, and B's local tier inside B's server-facing cache.
func TestSelfTimesPeerFill(t *testing.T) {
	spans := []span{
		sp("shard.run", "k", 0, 100),
		sp("cache.get_hit", "k", 10, 60),
		sp("cache.local.get_miss", "k", 10, 12),
		sp("fleet.fetch_hit", "k", 12, 50),
		sp("server.cache_get", "k", 20, 40),
		sp("cache.src.get_hit", "k", 25, 35),
		sp("cache.local.put", "k", 50, 55),
	}
	got := selfByName(t, spans)
	want := map[string]int64{
		"cache.get_hit/k":        5,
		"cache.local.get_miss/k": 2,
		"fleet.fetch_hit/k":      18,
		"server.cache_get/k":     10,
		"cache.src.get_hit/k":    10,
		"cache.local.put/k":      5,
		"shard.run/k":            50,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("self(%s) = %d, want %d", k, got[k], w)
		}
	}
}

func TestSelfTimesStray(t *testing.T) {
	spans := []span{sp("server.submit", "orphan", 0, 10), sp("server.healthz", "", 0, 5)}
	self, stray := selfTimes(spans)
	if stray != 1 || self[0] != 0 || self[1] != 0 {
		t.Errorf("self = %v, stray = %d; want no attribution and 1 stray", self, stray)
	}
}

func TestLinkByContainment(t *testing.T) {
	spans := []span{
		sp("http.stream", "k", 40, 90),
		sp("shard.run", "k", 0, 100),
		sp("server.stream", "k", 42, 88),
		sp("sim.run", "k", 35, 80), // overlaps the stream without nesting
		sp("server.healthz", "", 1, 2),
	}
	link(spans)
	for i, want := range []int{1, -1, 0, 1, -1} {
		if spans[i].Parent != want {
			t.Errorf("parent of %s = %d, want %d", spans[i].Name, spans[i].Parent, want)
		}
	}
}
