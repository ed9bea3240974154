package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"vexsmt/pkg/vexsmt"
)

// Disk is the persistent cache: one file per entry under a root
// directory, fanned out by key prefix (dir/ab/cdef… for key "abcdef…")
// so a full-grid sweep does not pile 144 files into one directory listing
// and repeated sweeps across processes and reboots share entries.
//
// Every file carries a self-checksum: the first line is the hex SHA-256
// of the payload that follows. Get verifies it and treats any mismatch —
// truncation, bit rot, a partial write from a crashed process — as a
// miss (counted in Stats().Errors), deleting the bad file so it is
// rewritten on the next Put. Writes go through a temp file and rename,
// so concurrent processes sharing a directory never observe a torn
// entry. The cache is therefore safe to share between any number of
// daemons and CLIs at once.
//
// A Disk verifies each entry once per process. The first Get of a key
// reads and checks its file and keeps a copy of the verified payload in
// a bounded in-memory LRU (the default Memory capacity); later Gets of
// that key return a copy of it without touching the file or re-hashing.
// That is sound because entries are content-addressed: a cell's result
// is a pure function of its key, so bytes verified once stay correct for
// the life of the process. The consequence is that a file corrupted or
// deleted after this process verified it is still served, correctly,
// from memory; the next process (or the next Disk over the directory)
// to read it detects the damage and removes the file. Put never fills
// the memory copy — it drops it, so the next Get re-reads and re-verifies
// the new file. A payload that verified but was wrong at a higher layer
// (a torn write that still carried a matching checksum) therefore heals
// as soon as the caller re-simulates and Puts the cell again.
type Disk struct {
	dir string
	// entries/bytes approximate the store's footprint: seeded by a scan at
	// open and adjusted by this process's Puts and corrupt-entry removals.
	// Other processes sharing the directory drift the numbers — they are a
	// sizing signal for placement/eviction decisions, not accounting.
	entries, bytes atomic.Int64
	// verified holds the payloads this process has read back and checked;
	// gen counts completed Puts, so a Get whose file read raced a Put does
	// not store bytes that Put has already replaced (see Get).
	verified *Memory
	gen      atomic.Uint64
	counters
}

// NewDisk opens (creating if needed) a disk cache rooted at dir; an empty
// dir selects DefaultDir.
func NewDisk(dir string) (*Disk, error) {
	if dir == "" {
		var err error
		if dir, err = DefaultDir(); err != nil {
			return nil, fmt.Errorf("cache: no default directory: %w", err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	d := &Disk{dir: dir, verified: NewMemory(0)}
	d.scanSize()
	return d, nil
}

// scanSize walks the store once to seed the footprint counters with the
// entries previous processes left behind.
func (d *Disk) scanSize() {
	_ = filepath.WalkDir(d.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || strings.HasPrefix(de.Name(), ".tmp-") {
			return nil
		}
		if info, err := de.Info(); err == nil {
			d.entries.Add(1)
			d.bytes.Add(info.Size())
		}
		return nil
	})
}

// Dir returns the cache's root directory.
func (d *Disk) Dir() string { return d.dir }

// path fans entries out by the first two key characters.
func (d *Disk) path(key string) string {
	if len(key) <= 2 {
		return filepath.Join(d.dir, key)
	}
	return filepath.Join(d.dir, key[:2], key[2:])
}

// Get implements vexsmt.CellCache: serve a payload this process has
// already verified from memory; otherwise read, verify the self-checksum,
// remember the payload, and degrade every failure to a miss.
func (d *Disk) Get(key string) ([]byte, bool) {
	if b, ok := d.verified.Get(key); ok {
		d.hits.Add(1)
		return b, true
	}
	gen := d.gen.Load()
	b, err := readFile(d.path(key))
	if err != nil {
		d.misses.Add(1)
		return nil, false
	}
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		d.corrupt(key)
		return nil, false
	}
	payload := b[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(b[:nl]) {
		d.corrupt(key)
		return nil, false
	}
	d.hits.Add(1)
	// Remember the payload only if no Put completed since the read began:
	// Put bumps gen before it drops the key, and the check runs under the
	// memory's lock, so bytes a Put replaced are never stored after it.
	d.verified.putIf(key, payload, func() bool { return d.gen.Load() == gen })
	return payload, true
}

// readFile is os.ReadFile; a test swaps it to land a Put between a Get's
// file read and its memory fill.
var readFile = os.ReadFile

// corrupt records a failed verification and removes the bad entry so the
// next Put rewrites it cleanly.
func (d *Disk) corrupt(key string) {
	d.errs.Add(1)
	d.misses.Add(1)
	if info, err := os.Stat(d.path(key)); err == nil {
		if os.Remove(d.path(key)) == nil {
			d.entries.Add(-1)
			d.bytes.Add(-info.Size())
		}
	}
}

// Put implements vexsmt.CellCache: write checksum + payload to a temp
// file and rename it into place. Failures are swallowed (the cache is
// best-effort) but counted in Stats().Errors.
func (d *Disk) Put(key string, value []byte) {
	p := d.path(key)
	dir := filepath.Dir(p)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if errors.Is(err, fs.ErrNotExist) {
		// The key's fan-out directory is made on its first Put (and again
		// should anything remove it), not tried on every Put.
		if err = os.MkdirAll(dir, 0o755); err == nil {
			f, err = os.CreateTemp(dir, ".tmp-*")
		}
	}
	if err != nil {
		d.errs.Add(1)
		return
	}
	// The checksum line and the payload go out in one write.
	buf := make([]byte, 0, sha256.Size*2+1+len(value))
	sum := sha256.Sum256(value)
	buf = append(append(hex.AppendEncode(buf, sum[:]), '\n'), value...)
	_, werr := f.Write(buf)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	var oldSize int64 = -1 // -1: no prior entry
	if info, err := os.Stat(p); err == nil {
		oldSize = info.Size()
	}
	if werr == nil {
		werr = os.Rename(f.Name(), p)
	}
	if werr != nil {
		os.Remove(f.Name())
		d.errs.Add(1)
		return
	}
	d.gen.Add(1)
	d.verified.drop(key)
	if oldSize < 0 {
		d.entries.Add(1)
		d.bytes.Add(int64(len(buf)))
	} else {
		d.bytes.Add(int64(len(buf)) - oldSize)
	}
	d.puts.Add(1)
}

// Stats implements vexsmt.CellCache.
func (d *Disk) Stats() vexsmt.CacheStats { return d.stats() }

// CacheSize implements vexsmt.CacheSizer (see the entries/bytes field
// comment for the approximation contract).
func (d *Disk) CacheSize() vexsmt.CacheSize {
	return vexsmt.CacheSize{Entries: d.entries.Load(), Bytes: d.bytes.Load()}
}
