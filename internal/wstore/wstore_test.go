package wstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/synth"
	"vexsmt/internal/trace"
)

func writeVXT(t *testing.T, dir, name, bench string, n int) (string, []synth.TInst) {
	t.Helper()
	p, ok := synth.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	instrs := trace.Record(synth.MustNewGenerator(p, isa.ST200x4), n)
	var buf bytes.Buffer
	if err := trace.Write(&buf, bench, isa.ST200x4.Clusters, instrs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, instrs
}

const loopVEX = `
  c0 mov $r1 = 0
  c0 mov $r2 = 0
;;
loop:
  c0 add $r1 = $r1, 1
;;
  c0 add $r2 = $r2, $r1
  c0 cmplt $b0 = $r1, 10
;;
  c0 br $b0, loop
;;
`

func TestLoadVXTDecodesOnce(t *testing.T) {
	dir := t.TempDir()
	path, want := writeVXT(t, dir, "idct.vxt", "idct", 300)
	s := New()
	tr, err := s.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "idct" || tr.Clusters != 4 || tr.Len() != len(want) {
		t.Fatalf("header: %q clusters=%d len=%d", tr.Name, tr.Clusters, tr.Len())
	}
	for i, ti := range tr.Instrs() {
		if ti != want[i] {
			t.Fatalf("instr %d mismatch", i)
		}
	}
	again, err := s.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if again != tr {
		t.Fatal("same content decoded twice")
	}
	// Same bytes under a different name: still one arena, aliased name.
	raw, _ := os.ReadFile(path)
	alias := filepath.Join(dir, "alias.vxt")
	if err := os.WriteFile(alias, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	at, err := s.Load(alias)
	if err != nil {
		t.Fatal(err)
	}
	if at != tr {
		t.Fatal("identical content not shared by hash")
	}
	if got, ok := s.ByName("alias"); !ok || got != tr {
		t.Fatal("alias name not registered")
	}
}

func TestReplayerSharesArena(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeVXT(t, dir, "mcf.vxt", "mcf", 50)
	s := New()
	tr, err := s.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tr.NewReplayer()
	if err != nil {
		t.Fatal(err)
	}
	// Zero-copy contract: the replayer reads the store's arena directly.
	tr.Instrs()[0].PC = 0xdeadbeef
	var ti synth.TInst
	r.Next(&ti)
	if ti.PC != 0xdeadbeef {
		t.Fatal("replayer copied the arena instead of sharing it")
	}
}

func TestLoadVEXProgram(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "loop.vex")
	if err := os.WriteFile(path, []byte(loopVEX), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New()
	tr, err := s.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// 1 setup + 10 iterations × 3 body instructions.
	if tr.Len() != 31 {
		t.Fatalf("executed %d instructions, want 31", tr.Len())
	}
	instrs := tr.Instrs()
	taken, branches := 0, 0
	for _, ti := range instrs {
		if ti.IsBranch {
			branches++
		}
		if ti.Taken {
			taken++
		}
	}
	// The br executes 10 times: 9 taken back to loop, the last falls off.
	if branches != 10 || taken != 9 {
		t.Fatalf("branches=%d taken=%d, want 10/9", branches, taken)
	}
	if instrs[0].Demand.B[0].Ops != 2 {
		t.Fatalf("first bundle demand: %+v", instrs[0].Demand.B[0])
	}
	// Deterministic identity: reloading yields the same object.
	again, err := s.Load(path)
	if err != nil || again != tr {
		t.Fatalf("reload: %v, shared=%v", err, again == tr)
	}
}

func TestLoadVEXMemAddrs(t *testing.T) {
	src := `
  c0 mov $r1 = 0x10000
  c0 mov $r2 = 77
;;
  c0 stw 8[$r1] = $r2
;;
  c0 ldw $r3 = 8[$r1]
;;
`
	dir := t.TempDir()
	path := filepath.Join(dir, "mem.vex")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := New().Load(path)
	if err != nil {
		t.Fatal(err)
	}
	instrs := tr.Instrs()
	if len(instrs) != 3 {
		t.Fatalf("len=%d", len(instrs))
	}
	if instrs[1].MemAddr[0] != 0x10008 || instrs[2].MemAddr[0] != 0x10008 {
		t.Fatalf("mem addrs: %#x %#x, want 0x10008", instrs[1].MemAddr[0], instrs[2].MemAddr[0])
	}
	if !instrs[1].Demand.B[0].Stor || !instrs[2].Demand.B[0].Load {
		t.Fatal("load/store demand flags wrong")
	}
}

func TestNameConflictRejected(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	p1, _ := writeVXT(t, d1, "same.vxt", "idct", 50)
	p2, _ := writeVXT(t, d2, "same.vxt", "mcf", 50)
	s := New()
	if _, err := s.Load(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(p2); err == nil {
		t.Fatal("conflicting content under one name accepted")
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	writeVXT(t, dir, "b.vxt", "idct", 60)
	writeVXT(t, dir, "a.vxt", "mcf", 40)
	if err := os.WriteFile(filepath.Join(dir, "c.vex"), []byte(loopVEX), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ignored.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New()
	traces, err := s.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 {
		t.Fatalf("loaded %d traces", len(traces))
	}
	want := []string{"a", "b", "c"}
	for i, tr := range traces {
		if tr.Name != want[i] {
			t.Fatalf("order: got %q at %d", tr.Name, i)
		}
	}
	if names := s.Names(); len(names) != 3 || names[0] != "a" {
		t.Fatalf("names: %v", names)
	}
	for _, ref := range s.Refs() {
		tr, ok := s.Resolve(ref)
		if !ok {
			t.Fatalf("ref %q does not resolve", ref)
		}
		if got, ok := s.Get(tr.Hash); !ok || got != tr {
			t.Fatalf("hash lookup failed for %q", ref)
		}
	}
	if _, ok := s.Resolve("a"); !ok {
		t.Fatal("bare name does not resolve")
	}
	if _, ok := s.Resolve("nope@0000"); ok {
		t.Fatal("bogus hash resolved")
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := New().LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestLoadBadFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.vxt")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New().Load(bad); err == nil {
		t.Fatal("garbage trace accepted")
	}
	empty := filepath.Join(dir, "empty.vxt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New().Load(empty); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestSplitRef(t *testing.T) {
	if n, h := SplitRef("name@abc"); n != "name" || h != "abc" {
		t.Fatalf("got %q %q", n, h)
	}
	if n, h := SplitRef("bare"); n != "bare" || h != "" {
		t.Fatalf("got %q %q", n, h)
	}
}

// TestConcurrentLoadAndResolve loads one shared file and one file per
// goroutine from 8 goroutines at once while each also resolves: every
// caller for one content must get the same *Trace, whichever decode won.
// The shared trace is long enough that several goroutines decode it at
// once, so the first-published-wins rule is what the check exercises.
func TestConcurrentLoadAndResolve(t *testing.T) {
	const workers = 8
	dir := t.TempDir()
	shared, _ := writeVXT(t, dir, "shared.vxt", "idct", 20000)
	raw, err := os.ReadFile(shared)
	if err != nil {
		t.Fatal(err)
	}
	own := make([]string, workers)
	for w := range own {
		// Odd workers load a copy of the shared content under their own
		// name; even workers load content of their own.
		if w%2 == 1 {
			own[w] = filepath.Join(dir, fmt.Sprintf("copy%d.vxt", w))
			if err := os.WriteFile(own[w], raw, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		own[w], _ = writeVXT(t, dir, fmt.Sprintf("own%d.vxt", w), "mcf", 100+w)
	}

	for round := 0; round < 3; round++ {
		s := New()
		got := make([][2]*Trace, workers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				// Half the workers take the shared content through its copy
				// first, so both names race for the same hash.
				paths := []string{shared, own[w]}
				if w%4 == 1 {
					paths[0], paths[1] = paths[1], paths[0]
				}
				for _, p := range paths {
					tr, err := s.Load(p)
					if err != nil {
						t.Error(err)
						return
					}
					if p == shared {
						got[w][0] = tr
					} else {
						got[w][1] = tr
					}
					if r, ok := s.Resolve(tr.Ref()); !ok || r != tr {
						t.Errorf("worker %d: %s resolves to %p, loaded %p", w, tr.Ref(), r, tr)
					}
					s.Resolve("shared")
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}

		first := got[0][0]
		for w := range got {
			if got[w][0] != first {
				t.Fatalf("round %d: worker %d got a different trace for the shared file", round, w)
			}
			if w%2 == 1 && got[w][1] != first {
				t.Fatalf("round %d: worker %d got a different trace for a copy of the shared file", round, w)
			}
			if w%2 == 0 && (got[w][1] == first || got[w][1].Len() != 100+w) {
				t.Fatalf("round %d: worker %d: own file resolved to the wrong trace", round, w)
			}
		}
		if tr, ok := s.Get(first.Hash); !ok || tr != first {
			t.Fatalf("round %d: published trace not the one every caller got", round)
		}
		if n := len(s.Names()); n != 1+workers {
			t.Fatalf("round %d: %d names registered, want %d", round, n, 1+workers)
		}
	}
}

// TestLoadDirFirstErrorDeterministic checks that concurrent decoding
// keeps LoadDir's error deterministic: with two corrupt files the error
// always names the first in sorted order.
func TestLoadDirFirstErrorDeterministic(t *testing.T) {
	dir := t.TempDir()
	for i, name := range []string{"a.vxt", "c.vxt", "e.vxt", "g.vex"} {
		writeVXT(t, dir, name, "mcf", 200+i)
	}
	for _, name := range []string{"f.vxt", "d.vxt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("VXT1 corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		_, err := New().LoadDir(dir)
		if err == nil || !strings.HasPrefix(err.Error(), "d.vxt: ") {
			t.Fatalf("run %d: want an error naming d.vxt, got %v", i, err)
		}
	}
}
