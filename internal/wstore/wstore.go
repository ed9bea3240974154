// Package wstore is the content-addressed, load-once workload store behind
// the experiment grid's workload axis. Binary VXT1 traces are mmap'd (with
// a plain-read fallback) and decoded once per process into an immutable
// flat []synth.TInst arena keyed by the sha256 of the file bytes (loads
// racing on the same new content may each decode; the first arena
// published is the one kept); every concurrent cell and daemon job
// replays the same arena through zero-copy trace.Replayer cursors. VEX
// assembly programs enter the same store: they are assembled and executed
// through the functional machine once at load time, the executed
// instruction stream recorded as a trace, and from then on are
// indistinguishable from a loaded .vxt.
//
// Content addressing is what makes the workload axis safe to cache and to
// distribute: a cell's cache key folds in the workload's content hash, so
// two daemons only share results when they replay byte-identical inputs,
// and editing a trace file invalidates exactly the cells built on it.
package wstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
)

// Trace is one immutable decoded workload. The instruction arena is shared
// by every consumer — callers must never mutate the slice returned by
// Instrs or feed it to code that does.
type Trace struct {
	Name     string // workload name: the source file's base name sans extension
	Hash     string // sha256 hex of the source file bytes
	Clusters int
	instrs   []synth.TInst
}

// Len returns the trace length in instructions.
func (t *Trace) Len() int { return len(t.instrs) }

// Instrs exposes the shared arena. Read-only by contract.
func (t *Trace) Instrs() []synth.TInst { return t.instrs }

// Ref is the full workload identity, "name@sha256hex". It is what travels
// in experiment cells and cache keys: the name for humans, the hash for
// correctness.
func (t *Trace) Ref() string { return t.Name + "@" + t.Hash }

// NewReplayer returns a fresh zero-copy cursor over the shared arena.
func (t *Trace) NewReplayer() (*trace.Replayer, error) {
	return trace.NewReplayer(t.Name, t.instrs)
}

// SplitRef splits a "name@hash" workload reference. The hash part is empty
// when the reference carries only a name.
func SplitRef(ref string) (name, hash string) {
	if i := strings.LastIndexByte(ref, '@'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return ref, ""
}

// Store maps content hashes and workload names to decoded traces. The zero
// value is not usable; call New. Most callers want the process-global
// Shared store, which is what gives "decoded exactly once per process".
type Store struct {
	mu     sync.Mutex
	byHash map[string]*Trace
	byName map[string]*Trace
}

// New returns an empty store (tests use private stores; production code
// shares one).
func New() *Store {
	return &Store{byHash: map[string]*Trace{}, byName: map[string]*Trace{}}
}

var shared = New()

// Shared returns the process-global store.
func Shared() *Store { return shared }

// Get looks up a trace by content hash.
func (s *Store) Get(hash string) (*Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byHash[hash]
	return t, ok
}

// ByName looks up a trace by workload name.
func (s *Store) ByName(name string) (*Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byName[name]
	return t, ok
}

// Resolve looks up a trace by "name@hash" reference, by bare hash, or by
// bare name, in that order of authority.
func (s *Store) Resolve(ref string) (*Trace, bool) {
	name, hash := SplitRef(ref)
	if hash != "" {
		if t, ok := s.Get(hash); ok {
			return t, true
		}
		return nil, false
	}
	return s.ByName(name)
}

// Names returns the sorted workload names currently loaded.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byName))
	for n := range s.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Refs returns the sorted "name@hash" references currently loaded.
func (s *Store) Refs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byName))
	for _, t := range s.byName {
		out = append(out, t.Ref())
	}
	sort.Strings(out)
	return out
}

// Load reads, hashes, and decodes one workload file (.vxt trace or .vex
// program). The file bytes are mapped read-only when the platform allows
// it and copied otherwise; either way the mapping is released after the
// one-time decode. Mapping, hashing and decoding run outside the store
// lock, which is taken only to check names and publish the trace, so a
// load never stalls a concurrent Resolve. Loading content the store
// already holds returns the held trace without touching the decoder; two
// loads of the same new content racing each other may both decode, and
// both get the trace published first.
func (s *Store) Load(path string) (*Trace, error) {
	name, t, err := s.prepare(path)
	if err != nil {
		return nil, err
	}
	return s.publish(name, t)
}

// LoadDir loads every .vxt and .vex file in dir and returns the loaded
// traces in name order. Files are decoded on up to GOMAXPROCS goroutines
// but published one by one in sorted path order, so the store ends up as
// a sequential load would leave it and the error reported is always the
// one for the first failing file in that order.
func (s *Store) LoadDir(dir string) ([]*Trace, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wstore: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".vxt", ".vex":
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("wstore: no .vxt or .vex workloads in %s", dir)
	}
	sort.Strings(paths)

	type prepared struct {
		name string
		t    *Trace
		err  error
	}
	ready := make([]prepared, len(paths))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(paths)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(paths) {
					return
				}
				r := &ready[i]
				r.name, r.t, r.err = s.prepare(paths[i])
			}
		}()
	}
	wg.Wait()

	out := make([]*Trace, 0, len(paths))
	for i, r := range ready {
		t, err := r.t, r.err
		if err == nil {
			t, err = s.publish(r.name, t)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(paths[i]), err)
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// prepare maps, hashes and decodes path without holding the store lock.
// It returns the workload name and either the trace the store already
// holds for the content or a freshly decoded one not yet published.
func (s *Store) prepare(path string) (string, *Trace, error) {
	data, release, err := mapFile(path)
	if err != nil {
		return "", nil, fmt.Errorf("wstore: %w", err)
	}
	defer release()
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	name := workloadName(path)

	if t, ok := s.Get(hash); ok {
		return name, t, nil
	}
	// A name already bound to other content fails before the decode, so
	// the clash, not the file's contents, is what the caller hears about.
	if prev, ok := s.ByName(name); ok && prev.Hash != hash {
		return "", nil, clashError(name, prev.Hash, hash)
	}
	t, err := decode(name, path, data)
	if err != nil {
		return "", nil, err
	}
	t.Hash = hash
	return name, t, nil
}

// publish registers t under name. When a trace with the same content was
// published first, that one is registered and returned instead.
func (s *Store) publish(name string, t *Trace) (*Trace, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, clash := s.byName[name]; clash && prev.Hash != t.Hash {
		return nil, clashError(name, prev.Hash, t.Hash)
	}
	if first, ok := s.byHash[t.Hash]; ok {
		t = first
	} else {
		s.byHash[t.Hash] = t
	}
	s.byName[name] = t
	return t, nil
}

func clashError(name, held, hash string) error {
	return fmt.Errorf("wstore: workload %q already loaded with different content (%s vs %s)",
		name, short(held), short(hash))
}

// decode builds the trace for one file's bytes. Nothing in the result
// aliases data: the caller releases the mapping as soon as this returns.
func decode(name, path string, data []byte) (*Trace, error) {
	switch filepath.Ext(path) {
	case ".vex":
		instrs, clusters, err := recordVEX(data)
		if err != nil {
			return nil, fmt.Errorf("wstore: %s: %w", name, err)
		}
		return &Trace{Name: name, Clusters: clusters, instrs: instrs}, nil
	default:
		_, clusters, instrs, err := trace.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("wstore: %s: %w", name, err)
		}
		if len(instrs) == 0 {
			return nil, fmt.Errorf("wstore: %s: empty trace", name)
		}
		return &Trace{Name: name, Clusters: clusters, instrs: instrs}, nil
	}
}

func workloadName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
