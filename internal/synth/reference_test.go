package synth

import (
	"math"
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
)

// refGenerator is the generator's walk as it was before address draws
// were made branch-free: the stream coin is rng.Bool, a random address
// draws rng.Uint64n, and the streaming cursor is reduced modulo the
// buffer size on every access. It shares the generator's layout, so the
// differential test below checks the walk and the address model only.
type refGenerator struct {
	prof Profile
	geom isa.Geometry
	layout

	dyn       *rng.Rand
	ri        int
	pos       int
	itersLeft int
	streamPos uint64
}

func newRefGenerator(g *Generator) *refGenerator {
	r := &refGenerator{prof: g.prof, geom: g.geom, layout: g.layout}
	r.Reset(0)
	return r
}

func (g *refGenerator) Reset(variant uint64) {
	g.dyn = rng.New(g.prof.Seed*0x9e37_79b9 + 0xd1b5_4a32 + variant*0x100_0001b3)
	g.ri = 0
	g.pos = 0
	g.itersLeft = g.jitterIters(g.prof.LoopIters)
	g.streamPos = 0
}

func (g *refGenerator) jitterIters(mean int) int {
	if mean <= 1 {
		return 1
	}
	lo := mean / 2
	if lo < 1 {
		lo = 1
	}
	return lo + g.dyn.Intn(mean+1)
}

func (g *refGenerator) Next(t *TInst) {
	body := g.regions[g.ri]
	tm := body[g.pos]
	sh := &g.shapes[tm.shape]
	t.Demand = sh.demand
	t.PC = uint64(tm.pc)
	t.Size = sh.size
	t.Taken = false
	t.IsBranch = tm.br != brNone
	t.Summary = sh.demand.Summary()

	for c := 0; c < g.geom.Clusters; c++ {
		if sh.demand.B[c].Mem == 0 {
			t.MemAddr[c] = 0
			continue
		}
		if g.dyn.Bool(g.prof.StreamFrac) {
			wrap := uint64(g.prof.StreamKB) * 1024
			if wrap < 64 {
				wrap = 64
			}
			t.MemAddr[c] = dataBase + (g.streamPos % wrap)
			g.streamPos += 4
		} else {
			foot := uint64(g.prof.DataKB) * 1024
			if foot < 64 {
				foot = 64
			}
			t.MemAddr[c] = dataBase + uint64(g.prof.StreamKB)*1024 +
				(g.dyn.Uint64n(foot) &^ 3)
		}
	}

	switch tm.br & brKindMask {
	case brBackEdge:
		if g.itersLeft > 0 {
			g.itersLeft--
			t.Taken = true
			g.pos = 0
			return
		}
		if g.ri == len(g.regions)-1 {
			t.Taken = true
		}
		g.ri = (g.ri + 1) % len(g.regions)
		g.pos = 0
		g.itersLeft = g.jitterIters(g.prof.LoopIters)
	case brInner:
		if g.dyn.Bool(g.prof.TakenProb) {
			t.Taken = true
			g.pos += int(tm.br>>brSkipShift) + 1
			if g.pos >= len(body) {
				g.pos = len(body) - 1
			}
			return
		}
		g.pos++
	default:
		g.pos++
	}
	if g.pos >= len(body) {
		g.pos = 0
	}
}

// TestGeneratorMatchesReference requires the branch-free address path to
// emit exactly the reference walk's instructions, addresses included,
// for every catalog and vector profile over respawn variants 0–2, and for
// profiles at the stream-coin edges: StreamFrac 0 and 1 (no coin draw),
// a coin that almost always or almost never streams, NaN (a draw that
// never streams) and a streaming buffer and footprint under 64 bytes.
func TestGeneratorMatchesReference(t *testing.T) {
	profs := append(Catalog(), VectorCatalog()...)
	base, _ := ByName("cjpeg")
	for i, edge := range []struct {
		frac float64
		tiny bool // StreamKB and DataKB 0: both address ranges clamp to 64 bytes
	}{
		{frac: 0}, {frac: 1}, {frac: -0.5}, {frac: 1.5},
		{frac: 1e-300}, {frac: 1 - 1e-16}, {frac: 0.5}, {frac: math.NaN()},
		{frac: 0.5, tiny: true},
	} {
		p := base
		p.Name = "edge"
		p.Seed += uint64(i + 1)
		p.StreamFrac = edge.frac
		if edge.tiny {
			p.StreamKB, p.DataKB = 0, 0
		}
		profs = append(profs, p)
	}
	got := make([]TInst, BatchSize)
	want := make([]TInst, BatchSize)
	for _, p := range profs {
		g := MustNewGenerator(p, isa.ST200x4)
		ref := newRefGenerator(g)
		for variant := uint64(0); variant <= 2; variant++ {
			g.Reset(variant)
			ref.Reset(variant)
			for n := 0; n < 20_000; n += len(got) {
				g.NextN(got)
				for i := range want {
					ref.Next(&want[i])
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s (StreamFrac %v) variant %d instr %d:\n got %+v\nwant %+v",
							p.Name, p.StreamFrac, variant, n+i, got[i], want[i])
					}
				}
			}
		}
	}
}
