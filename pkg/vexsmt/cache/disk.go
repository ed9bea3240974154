package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
type Disk struct {
	dir string
	// entries/bytes approximate the store's footprint: seeded by a scan at
	// open and adjusted by this process's Puts and corrupt-entry removals.
	// Other processes sharing the directory drift the numbers — they are a
	// sizing signal for placement/eviction decisions, not accounting.
	entries, bytes atomic.Int64
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
	d := &Disk{dir: dir}
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

// Get implements vexsmt.CellCache: read, verify the self-checksum, and
// degrade every failure to a miss.
func (d *Disk) Get(key string) ([]byte, bool) {
	b, err := os.ReadFile(d.path(key))
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
	return payload, true
}

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
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		d.errs.Add(1)
		return
	}
	f, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		d.errs.Add(1)
		return
	}
	sum := sha256.Sum256(value)
	_, werr := fmt.Fprintf(f, "%s\n", hex.EncodeToString(sum[:]))
	if werr == nil {
		_, werr = f.Write(value)
	}
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
	newSize := int64(len(value)) + sha256.Size*2 + 1 // checksum line + payload
	if oldSize < 0 {
		d.entries.Add(1)
		d.bytes.Add(newSize)
	} else {
		d.bytes.Add(newSize - oldSize)
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
