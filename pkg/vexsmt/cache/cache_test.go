package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vexsmt/pkg/vexsmt"
)

func TestKeyCanonicalAndSensitive(t *testing.T) {
	meta := vexsmt.RunMeta{SchemaVersion: vexsmt.SchemaVersion, Seed: 1, Scale: 100, Parallelism: 8, Techniques: "SMT,CSMT"}
	spec := vexsmt.CellSpec{Mix: "mmhh", Technique: "CCSI AS", Threads: 4}
	base := vexsmt.CacheKey(meta, spec)
	if base != vexsmt.CacheKey(meta, spec) {
		t.Fatal("CacheKey is not deterministic")
	}
	if len(base) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", base)
	}
	// Result-determining inputs must each move the key.
	for name, k := range map[string]string{
		"seed":      vexsmt.CacheKey(vexsmt.RunMeta{SchemaVersion: meta.SchemaVersion, Seed: 2, Scale: 100}, spec),
		"scale":     vexsmt.CacheKey(vexsmt.RunMeta{SchemaVersion: meta.SchemaVersion, Seed: 1, Scale: 200}, spec),
		"schema":    vexsmt.CacheKey(vexsmt.RunMeta{SchemaVersion: meta.SchemaVersion + 1, Seed: 1, Scale: 100}, spec),
		"mix":       vexsmt.CacheKey(meta, vexsmt.CellSpec{Mix: "llll", Technique: spec.Technique, Threads: 4}),
		"technique": vexsmt.CacheKey(meta, vexsmt.CellSpec{Mix: spec.Mix, Technique: "SMT", Threads: 4}),
		"threads":   vexsmt.CacheKey(meta, vexsmt.CellSpec{Mix: spec.Mix, Technique: spec.Technique, Threads: 2}),
	} {
		if k == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
	// Fields that cannot change results must not participate.
	insensitive := meta
	insensitive.Parallelism = 1
	insensitive.Techniques = "SMT"
	if vexsmt.CacheKey(insensitive, spec) != base {
		t.Error("parallelism/technique-set moved the key; cross-run sharing broken")
	}
}

func TestMemoryLRU(t *testing.T) {
	m := NewMemory(2)
	m.Put("a", []byte("1"))
	m.Put("b", []byte("2"))
	if _, ok := m.Get("a"); !ok {
		t.Fatal("a missing")
	}
	m.Put("c", []byte("3")) // evicts b (a was refreshed by the Get)
	if _, ok := m.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("len %d, want 2", m.Len())
	}
	st := m.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Puts != 3 {
		t.Fatalf("stats %+v", st)
	}
	// Stored payloads are isolated from caller mutation.
	val := []byte("mutable")
	m.Put("d", val)
	val[0] = 'X'
	got, _ := m.Get("d")
	if string(got) != "mutable" {
		t.Fatalf("stored payload aliased caller slice: %q", got)
	}
	got[0] = 'Y'
	again, _ := m.Get("d")
	if string(again) != "mutable" {
		t.Fatalf("returned payload aliased stored slice: %q", again)
	}
}

func TestDiskRoundTripAndSharing(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := vexsmt.CacheKey(vexsmt.RunMeta{SchemaVersion: 1, Seed: 1, Scale: 100},
		vexsmt.CellSpec{Mix: "mmhh", Technique: "SMT", Threads: 2})
	payload := []byte(`{"Cycles":12345}`)
	d.Put(key, payload)
	got, ok := d.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: ok=%v got=%q", ok, got)
	}
	// A second instance over the same directory (another process, in
	// practice) sees the entry.
	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("entry invisible to a second instance")
	}
	if _, ok := d.Get("0000deadbeef"); ok {
		t.Fatal("absent key hit")
	}
}

// TestDiskCorruptEntryIsMissNotError is the satellite contract: a
// corrupted cache file degrades to a miss (so the cell re-simulates and
// the entry is rewritten), never an error or a wrong payload.
func TestDiskCorruptEntryIsMissNotError(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"flipped-payload-byte": func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"truncated":            func(b []byte) []byte { return b[:len(b)/2] },
		"no-checksum-header":   func(b []byte) []byte { return []byte("no newline here") },
		"empty":                func(b []byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			d, err := NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			const key = "abcdef0123456789"
			d.Put(key, []byte(`{"Cycles":777,"Ops":999}`))
			p := filepath.Join(d.Dir(), key[:2], key[2:])
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(key); ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			st := d.Stats()
			if st.Errors == 0 && name != "empty" {
				// "empty" may legally read as a missing checksum or vanish
				// depending on the corruption; every other case must count.
				t.Fatalf("corruption not counted: %+v", st)
			}
			// The bad file is gone: a fresh Put restores service.
			d.Put(key, []byte("recovered"))
			if got, ok := d.Get(key); !ok || string(got) != "recovered" {
				t.Fatalf("cache did not recover after corruption: ok=%v got=%q", ok, got)
			}
		})
	}
}

func TestDiskConcurrentWritersAgree(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("%02x-shared-key", i%4)
				d.Put(key, []byte(fmt.Sprintf("payload-%d", i%4)))
				if got, ok := d.Get(key); ok {
					// Atomic rename: any observed value is a complete,
					// checksum-valid payload for that key.
					if string(got) != fmt.Sprintf("payload-%d", i%4) {
						t.Errorf("torn read: %q", got)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	// Once the writers stop, a Put of new bytes is what Get returns: no
	// payload remembered during the race outlives it.
	for i := 0; i < 4; i++ {
		key, want := fmt.Sprintf("%02x-shared-key", i), fmt.Sprintf("final-%d", i)
		d.Put(key, []byte(want))
		if got, ok := d.Get(key); !ok || string(got) != want {
			t.Fatalf("%s after the race: ok=%v got=%q, want %q", key, ok, got, want)
		}
	}
}

func TestCacheSizeTracking(t *testing.T) {
	m := NewMemory(2)
	m.Put("a", []byte("1234"))
	m.Put("b", []byte("56"))
	if sz := m.CacheSize(); sz.Entries != 2 || sz.Bytes != 6 {
		t.Fatalf("memory size %+v, want 2 entries / 6 bytes", sz)
	}
	m.Put("a", []byte("1")) // overwrite shrinks
	m.Put("c", []byte("789"))
	// b evicted (a refreshed by overwrite): entries a(1) + c(3).
	if sz := m.CacheSize(); sz.Entries != 2 || sz.Bytes != 4 {
		t.Fatalf("memory size after eviction %+v, want 2 entries / 4 bytes", sz)
	}

	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("abcd", []byte("payload"))
	sz := d.CacheSize()
	if sz.Entries != 1 || sz.Bytes <= int64(len("payload")) {
		t.Fatalf("disk size %+v, want 1 entry incl. checksum overhead", sz)
	}
	// A fresh instance over the same directory seeds its counters by scan.
	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.CacheSize(); got != sz {
		t.Fatalf("rescanned size %+v != live size %+v", got, sz)
	}
}

// fetchFunc is a test peer-fill hook with call accounting.
type fetchFunc struct {
	calls int
	data  map[string][]byte
}

func (f *fetchFunc) fetch(key string) ([]byte, bool) {
	f.calls++
	v, ok := f.data[key]
	return v, ok
}

func TestPeerFillFillsLocalOnPeerHit(t *testing.T) {
	peer := &fetchFunc{data: map[string][]byte{"k1": []byte("from-peer")}}
	local := NewMemory(0)
	pf := WithPeerFill(local, peer.fetch)

	// Local miss, peer hit: payload returned and written back locally.
	got, ok := pf.Get("k1")
	if !ok || string(got) != "from-peer" {
		t.Fatalf("peer fill: ok=%v got=%q", ok, got)
	}
	if peer.calls != 1 {
		t.Fatalf("peer asked %d times, want 1", peer.calls)
	}
	// Second Get is a local hit; peers are not bothered again.
	if _, ok := pf.Get("k1"); !ok {
		t.Fatal("filled entry missing locally")
	}
	if peer.calls != 1 {
		t.Fatalf("peer asked again after local fill (%d calls)", peer.calls)
	}
	// Miss everywhere counts a peer miss.
	if _, ok := pf.Get("absent"); ok {
		t.Fatal("absent key hit")
	}
	st := pf.Stats()
	if st.PeerHits != 1 || st.PeerMisses != 1 {
		t.Fatalf("peer stats %+v, want 1 hit / 1 miss", st)
	}
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("local stats %+v, want 1 hit / 2 misses", st)
	}
	if pf.Local() != vexsmt.CellCache(local) {
		t.Fatal("Local() does not return the wrapped cache")
	}
}

func TestPeerFillWithoutLocalStore(t *testing.T) {
	peer := &fetchFunc{data: map[string][]byte{"k": []byte("v")}}
	pf := WithPeerFill(nil, peer.fetch)
	if got, ok := pf.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("ok=%v got=%q", ok, got)
	}
	pf.Put("dropped", []byte("x")) // must not panic
	if _, ok := pf.Get("dropped"); ok {
		t.Fatal("Put stored despite nil local cache (peer should not have it)")
	}
	st := pf.Stats()
	if st.PeerHits != 1 || st.PeerMisses != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v", st)
	}
	if sz := pf.CacheSize(); sz != (vexsmt.CacheSize{}) {
		t.Fatalf("nil local cache sized %+v", sz)
	}
}

func TestPeerFillNilFetchIsPlainCache(t *testing.T) {
	local := NewMemory(0)
	pf := WithPeerFill(local, nil)
	pf.Put("k", []byte("v"))
	if got, ok := pf.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("ok=%v got=%q", ok, got)
	}
	if _, ok := pf.Get("absent"); ok {
		t.Fatal("absent key hit")
	}
	if st := pf.Stats(); st.PeerHits != 0 || st.PeerMisses != 0 {
		t.Fatalf("peer traffic without a fetch hook: %+v", st)
	}
}

// newTestDisk opens a Disk over a fresh temp directory.
func newTestDisk(t testing.TB) *Disk {
	t.Helper()
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskPutReplacesVerifiedCopy: a Put drops the payload the Disk
// verified earlier, so the next Get reads the new file. This is how a
// payload that verified but was torn at a higher layer heals.
func TestDiskPutReplacesVerifiedCopy(t *testing.T) {
	d := newTestDisk(t)
	const key = "abcdef0123456789"
	d.Put(key, []byte("torn"))
	if got, ok := d.Get(key); !ok || string(got) != "torn" {
		t.Fatalf("first read: ok=%v got=%q", ok, got)
	}
	d.Put(key, []byte("resimulated"))
	if got, ok := d.Get(key); !ok || string(got) != "resimulated" {
		t.Fatalf("Get after Put: ok=%v got=%q, want the new bytes", ok, got)
	}
}

// TestDiskServesVerifiedCopy pins the memory contract: only a verified
// read remembers a payload; once remembered, it is served even if the
// file is deleted or corrupted, and a fresh Disk over the directory (the
// next process) sees the loss or detects the damage.
func TestDiskServesVerifiedCopy(t *testing.T) {
	for _, damage := range []string{"deleted", "corrupted"} {
		t.Run(damage, func(t *testing.T) {
			d := newTestDisk(t)
			const key = "abcdef0123456789"
			payload := []byte(`{"Cycles":777,"Ops":999}`)
			p := filepath.Join(d.Dir(), key[:2], key[2:])

			// Put alone remembers nothing: the file is the only copy.
			d.Put(key, payload)
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get(key); ok {
				t.Fatalf("unread Put served after its file was deleted: %q", got)
			}

			d.Put(key, payload)
			if got, ok := d.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("first read: ok=%v got=%q", ok, got)
			}
			switch damage {
			case "deleted":
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
			case "corrupted":
				if err := os.WriteFile(p, []byte("0\nrot"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, ok := d.Get(key)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("verified copy not served after the file was %s: ok=%v got=%q", damage, ok, got)
			}
			got[0] = 'X' // the served copy is the caller's own
			if again, _ := d.Get(key); !bytes.Equal(again, payload) {
				t.Fatalf("served copy aliased the remembered payload: %q", again)
			}
			if st := d.Stats(); st.Hits != 3 || st.Misses != 1 || st.Errors != 0 {
				t.Fatalf("stats %+v, want 3 hits / 1 miss / 0 errors", st)
			}

			next, err := NewDisk(d.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := next.Get(key); ok {
				t.Fatalf("a fresh Disk served a %s file: %q", damage, got)
			}
			wantErrs := int64(0)
			if damage == "corrupted" {
				wantErrs = 1
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Fatalf("a fresh Disk kept the corrupted file: %v", err)
				}
			}
			if st := next.Stats(); st.Misses != 1 || st.Errors != wantErrs {
				t.Fatalf("fresh Disk stats %+v, want 1 miss / %d errors", st, wantErrs)
			}
		})
	}
}

// TestDiskVerifiedCopiesAreBounded: with more keys than the memory holds,
// every key still reads back its own bytes (evicted ones from the file)
// and the memory stays at its bound.
func TestDiskVerifiedCopiesAreBounded(t *testing.T) {
	d := newTestDisk(t)
	const bound = 4
	d.verified = NewMemory(bound)
	keys := 3 * bound
	for i := 0; i < keys; i++ {
		d.Put(fmt.Sprintf("%02xkey", i), []byte(fmt.Sprintf("payload-%d", i)))
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < keys; i++ {
			got, ok := d.Get(fmt.Sprintf("%02xkey", i))
			if want := fmt.Sprintf("payload-%d", i); !ok || string(got) != want {
				t.Fatalf("pass %d key %d: ok=%v got=%q, want %q", pass, i, ok, got, want)
			}
		}
	}
	if n := d.verified.Len(); n != bound {
		t.Fatalf("%d payloads remembered, want the bound %d", n, bound)
	}
	if st := d.Stats(); st.Hits != int64(2*keys) || st.Misses != 0 {
		t.Fatalf("stats %+v, want %d hits / 0 misses", st, 2*keys)
	}
	if sz := d.CacheSize(); sz.Entries != int64(keys) {
		t.Fatalf("CacheSize %+v, want %d entries (the memory copies are not counted)", sz, keys)
	}
}

// TestDiskGetRacingPutKeepsNewBytes lands a Put between a Get's file
// read and its memory fill: the Get may return the bytes it read, but it
// must not remember them over the Put's, or every later Get would serve
// the replaced payload.
func TestDiskGetRacingPutKeepsNewBytes(t *testing.T) {
	d := newTestDisk(t)
	const key = "abcdef0123456789"
	d.Put(key, []byte("old"))
	defer func(orig func(string) ([]byte, error)) { readFile = orig }(readFile)
	readFile = func(name string) ([]byte, error) {
		b, err := os.ReadFile(name)
		readFile = os.ReadFile
		d.Put(key, []byte("new"))
		return b, err
	}
	if got, ok := d.Get(key); !ok || string(got) != "old" {
		t.Fatalf("racing Get: ok=%v got=%q, want the bytes it read", ok, got)
	}
	if got, ok := d.Get(key); !ok || string(got) != "new" {
		t.Fatalf("Get after the race: ok=%v got=%q, want the Put's bytes", ok, got)
	}
}

// benchPayload is about the size of one cell's stats.Run disk payload.
var benchPayload = bytes.Repeat([]byte(`"Cycles":98500123,`), 36)

// BenchmarkDiskGet times Disk.Get per hop: a first read (open, read,
// verify, remember), a repeat of a verified key (memory only), and a miss.
func BenchmarkDiskGet(b *testing.B) {
	d := newTestDisk(b)
	const key = "abcdef0123456789"
	d.Put(key, benchPayload)
	get := func(b *testing.B, key string, want bool) {
		if _, ok := d.Get(key); ok != want {
			b.Fatalf("Get(%q) hit=%v, want %v", key, ok, want)
		}
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.verified.drop(key) // forget the last read: every Get opens the file
			get(b, key, true)
		}
	})
	b.Run("repeat", func(b *testing.B) {
		get(b, key, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, key, true)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			get(b, "0000absent", false)
		}
	})
}

// BenchmarkDiskPut times one Put: checksum, temp file, write, rename.
func BenchmarkDiskPut(b *testing.B) {
	d := newTestDisk(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Put("abcdef0123456789", benchPayload)
	}
}

// BenchmarkMemoryGet times a Memory hit (lock, LRU refresh, copy).
func BenchmarkMemoryGet(b *testing.B) {
	m := NewMemory(0)
	m.Put("abcdef0123456789", benchPayload)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get("abcdef0123456789"); !ok {
			b.Fatal("miss")
		}
	}
}
