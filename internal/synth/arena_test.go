package synth

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"vexsmt/internal/isa"
)

// resetArena empties the process-wide layout arena so a test starts from
// a known state.
func resetArena() {
	arena.mu.Lock()
	arena.layouts = nil
	arena.bytes = 0
	arena.mu.Unlock()
}

// stored reports whether the arena holds a layout for (prof, geom).
func stored(prof Profile, geom isa.Geometry) bool {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	return arena.layouts[layoutKey{prof, geom}] != nil
}

// freshGenerator builds a generator over a private, never-interned layout:
// the reference an interned generator must match.
func freshGenerator(t *testing.T, prof Profile, geom isa.Geometry) *Generator {
	t.Helper()
	l, err := layoutKey{prof, geom}.build()
	if err != nil {
		t.Fatal(err)
	}
	return newGenerator(prof, geom, l)
}

// sharesLayout reports whether a and b walk the same backing arrays.
func sharesLayout(a, b *Generator) bool {
	return &a.regions[0] == &b.regions[0] && &a.regions[0][0] == &b.regions[0][0] &&
		&a.shapes[0] == &b.shapes[0]
}

// requireSameStreams checks that a and b emit identical traces over
// respawn variants 0–3.
func requireSameStreams(t *testing.T, a, b *Generator) {
	t.Helper()
	bufA := make([]TInst, 4096)
	bufB := make([]TInst, 4096)
	for v := uint64(0); v < 4; v++ {
		a.Reset(v)
		b.Reset(v)
		a.NextN(bufA)
		b.NextN(bufB)
		for i := range bufA {
			if bufA[i] != bufB[i] {
				t.Fatalf("%s variant %d: instruction %d diverged:\n%+v\n%+v",
					a.prof.Name, v, i, bufA[i], bufB[i])
			}
		}
	}
}

// TestTemplateIsCompact pins the packed template size. The layout arena
// keeps every layout of a sweep for the life of the process, and the
// cold-sweep peak-RSS budget (+10% over a sweep that keeps none) only
// holds at 8 bytes per template: the 80-byte unpacked form took the
// 144-cell grid from 40 MB to 66 MB.
func TestTemplateIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(template{}); n > 8 {
		t.Fatalf("template is %d bytes, want <= 8", n)
	}
}

func TestArenaSharesLayout(t *testing.T) {
	resetArena()
	for _, prof := range append(Catalog(), VectorCatalog()...) {
		a := MustNewGenerator(prof, isa.ST200x4)
		b := MustNewGenerator(prof, isa.ST200x4)
		if !sharesLayout(a, b) {
			t.Fatalf("%s: second generator did not share the interned layout", prof.Name)
		}
		requireSameStreams(t, a, b)
		requireSameStreams(t, a, freshGenerator(t, prof, isa.ST200x4))
	}
}

func TestArenaConcurrentBuilds(t *testing.T) {
	resetArena()
	base, _ := ByName("djpeg")
	base.Seed = 0x5eed_0001
	const workers = 16
	shared := make([]*Generator, workers)
	own := make([]*Generator, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shared[w] = MustNewGenerator(base, isa.ST200x4)
			p := base
			p.Seed += uint64(w) + 1
			own[w] = MustNewGenerator(p, isa.ST200x4)
			buf := make([]TInst, 1024)
			shared[w].NextN(buf)
			own[w].NextN(buf)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !sharesLayout(shared[w], shared[0]) {
			t.Fatalf("worker %d got its own layout for a shared key", w)
		}
	}
	requireSameStreams(t, shared[0], freshGenerator(t, base, isa.ST200x4))
	for w := range own {
		requireSameStreams(t, own[w], freshGenerator(t, own[w].prof, isa.ST200x4))
	}
}

func TestArenaCap(t *testing.T) {
	resetArena()
	t.Cleanup(resetArena)
	prof, _ := ByName("mcf")
	prof.CodeKB = 2048 // a few MiB per layout, so the cap is hit in a few builds
	var (
		past  Profile
		found bool
	)
	for i := uint64(0); i < 64 && !found; i++ {
		p := prof
		p.Seed += i
		MustNewGenerator(p, isa.ST200x4)
		if arena.bytes > arenaCapBytes {
			t.Fatalf("arena holds %d bytes, cap %d", arena.bytes, arenaCapBytes)
		}
		past, found = p, !stored(p, isa.ST200x4)
	}
	if !found {
		t.Fatal("arena never reached its cap")
	}
	a := MustNewGenerator(past, isa.ST200x4)
	b := MustNewGenerator(past, isa.ST200x4)
	if stored(past, isa.ST200x4) || sharesLayout(a, b) {
		t.Fatal("a layout past the cap was stored")
	}
	requireSameStreams(t, a, b)
}

func TestInternedBuildAllocs(t *testing.T) {
	prof, _ := ByName("x264")
	MustNewGenerator(prof, isa.ST200x4)
	// The generator and its dynamic RNG; the layout itself is shared.
	if allocs := testing.AllocsPerRun(100, func() { MustNewGenerator(prof, isa.ST200x4) }); allocs > 2 {
		t.Fatalf("interned NewGenerator allocated %.1f times, want <= 2", allocs)
	}
}

// widest is a maximally wide machine: every cluster the ISA can name,
// each 16 issue slots wide, so one instruction spans up to 512 code bytes
// and demands vary across eight bundles.
var widest = isa.Geometry{Clusters: isa.MaxClusters, IssueWidth: 16, ALUs: 16, Muls: 4, MemUnits: 2}

func TestEncodingGuards(t *testing.T) {
	base := Profile{Name: "wide", Seed: 0x77, MeanOps: 40, MemFrac: 0.2, MulFrac: 0.1,
		StoreFrac: 0.3, CommProb: 0.3, BranchProb: 0.1, TakenProb: 0.5,
		LoopInstrs: 16, LoopIters: 4, CodeKB: 64, DataKB: 16, StreamKB: 64, StreamFrac: 0.5,
		LengthMInstr: 1}
	with := func(f func(*Profile)) Profile {
		p := base
		f(&p)
		return p
	}
	for _, tc := range []struct {
		name    string
		prof    Profile
		geom    isa.Geometry
		wantErr string
	}{
		{name: "widest geometry", prof: base, geom: widest},
		{name: "code reaches 4 GiB", prof: with(func(p *Profile) { p.CodeKB = 4 << 20 }),
			geom: widest, wantErr: "32-bit code addresses"},
		{name: "more than 65535 demands", prof: with(func(p *Profile) { p.CodeKB = 64 << 10 }),
			geom: widest, wantErr: "distinct instruction demands"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGenerator(tc.prof, tc.geom)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Every template must decode to what was built: sizes follow the
			// demand, and fall-through PCs advance by the previous size.
			var prev, ti TInst
			for i := 0; i < 50_000; i++ {
				g.Next(&ti)
				if ti.Size != uint32(4*ti.Demand.NumOps()) {
					t.Fatalf("instr %d: size %d for %d ops", i, ti.Size, ti.Demand.NumOps())
				}
				if i > 0 && !prev.Taken && ti.PC != prev.PC+uint64(prev.Size) {
					t.Fatalf("instr %d: fall-through PC %#x after %#x+%d", i, ti.PC, prev.PC, prev.Size)
				}
				prev = ti
			}
		})
	}
}

func TestMeasureEmpty(t *testing.T) {
	g := MustNewGenerator(Catalog()[0], isa.ST200x4)
	for _, n := range []int64{0, -1} {
		if got := Measure(g, n); got != (MeasuredShape{}) {
			t.Fatalf("Measure(g, %d) = %+v, want the zero shape", n, got)
		}
	}
}
