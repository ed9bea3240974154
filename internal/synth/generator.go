package synth

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"unsafe"

	"vexsmt/internal/isa"
	"vexsmt/internal/rng"
)

// TInst is one trace instruction: the resource demand the issue engine
// needs plus the addresses the cache models need. It carries no operand
// values — a statically scheduled VLIW's timing does not depend on them.
// Live and Stores are cluster masks derived from Demand (Masks), filled
// by every producer so the fetch path need not rescan the bundles.
type TInst struct {
	Demand   isa.InstrDemand
	PC       uint64
	Size     uint32
	Taken    bool  // instruction ends with a taken branch
	IsBranch bool  // instruction ends with a conditional branch (taken or not)
	Live     uint8 // bit c: Demand.B[c].Ops > 0
	Stores   uint8 // bit c: Demand.B[c].Stor
	MemAddr  [isa.MaxClusters]uint64
}

// Masks returns the Live and Stores masks of a demand.
func Masks(d *isa.InstrDemand) (live, stores uint8) {
	for c := range d.B {
		if d.B[c].Stor {
			stores |= 1 << uint(c)
		}
	}
	return d.UsedClusters(), stores
}

// Stream produces a deterministic instruction trace.
type Stream interface {
	// Next fills t with the next instruction of the trace, its Live and
	// Stores masks included.
	Next(t *TInst)
	// Reset restarts the trace; variant perturbs dynamic behaviour (data
	// addresses, iteration counts) so a respawned benchmark does not replay
	// bit-identically, while code layout stays fixed.
	Reset(variant uint64)
	// Length returns the number of instructions to completion at the given
	// scale divisor (paper scale: divisor 1 -> hundreds of millions).
	Length(scaleDiv int64) int64
	// Name identifies the benchmark.
	Name() string
}

// BatchStream is an optional Stream extension for producers that can fill
// whole instruction runs at once. NextN(out) must be exactly equivalent to
// len(out) successive Next calls; batching exists so a fetch loop can
// amortize the per-instruction interface dispatch over basic-block-sized
// runs.
type BatchStream interface {
	Stream
	// NextN fills out with the next len(out) instructions of the trace.
	NextN(out []TInst)
}

// BatchSize is the recommended refill size for prefetch buffers drawing
// from a Stream: roughly one basic-block run, big enough to amortize the
// per-instruction interface dispatch of Next. Consumers must clamp a
// refill to the current spawn (respawn boundaries fall mid-refill
// otherwise), which also bounds how far a buffer can run ahead of what a
// context will consume — the event-driven run loop jumps the clock over
// dead cycles, but each context still drains its buffer strictly in trace
// order, so larger batches buy nothing once dispatch is amortized.
const BatchSize = 64

// FillN fills out from s, using the batch path when s implements
// BatchStream and falling back to per-instruction Next calls otherwise.
// Either way the consumed trace prefix is identical.
func FillN(s Stream, out []TInst) {
	if b, ok := s.(BatchStream); ok {
		b.NextN(out)
		return
	}
	for i := range out {
		s.Next(&out[i])
	}
}

// codeBase separates benchmark code layouts so per-thread ICache streams
// do not alias by construction; the generator offsets by a seed-derived
// amount as well.
const codeBase = 0x0040_0000

// dataBase is where each benchmark's data footprint starts.
const dataBase = 0x2000_0000

// template is one precomputed body instruction of a loop region. Templates
// are deterministic per (profile, region, position), so every iteration of
// a loop re-fetches the same addresses — the property the ICache model
// depends on. A template is packed into 8 bytes: the demand and its size
// live once per distinct demand in the layout's shape table, and the
// branch kind and inner-branch skip share one byte.
type template struct {
	pc    uint32
	shape uint16 // index into layout.shapes
	br    uint8  // branch kind (brNone, brInner, brBackEdge) | skip<<brSkipShift
}

const (
	brNone     = 0
	brInner    = 1
	brBackEdge = 2

	brKindMask  = 3
	brSkipShift = 2 // inner-branch forward skip (instructions) above the kind bits
)

// shape is one distinct instruction demand of a layout plus its encoded
// size in bytes and its TInst masks, all pure functions of the demand.
type shape struct {
	demand       isa.InstrDemand
	live, stores uint8
	size         uint32
}

// layout is a benchmark's code image: the template bodies of its loop
// regions and the demand table their templates index. A layout is a pure
// function of (profile, geometry) and read-only once built, so every
// generator for the same key shares one.
type layout struct {
	regions [][]template // one body per loop nest, in code order
	shapes  []shape
}

// bytes is the layout's heap footprint as the arena accounts it.
func (l *layout) bytes() int64 {
	var n int64
	for _, body := range l.regions {
		n += int64(len(body)) * int64(unsafe.Sizeof(template{}))
	}
	return n + int64(len(l.regions))*int64(unsafe.Sizeof([]template{})) +
		int64(len(l.shapes))*int64(unsafe.Sizeof(shape{}))
}

// layoutKey identifies a layout. The profile carries the seed, so every
// technique and predictor of one (mix, threads) cell pair maps to the
// same key.
type layoutKey struct {
	prof Profile
	geom isa.Geometry
}

// arenaCapBytes bounds the process-wide layout arena (about three full
// Figure 14–16 grids at 8-byte templates). A daemon accepts any plan seed,
// so the arena must not grow without bound; once full, layouts are built
// without being stored. Results do not depend on whether a lookup hits.
const arenaCapBytes = 8 << 20

// arena interns built layouts for the life of the process.
var arena struct {
	mu      sync.Mutex
	layouts map[layoutKey]*layout
	bytes   int64
}

// internedLayout returns the shared layout for k, building (and, while
// the arena has room, storing) it on a miss. Concurrent misses on one key
// may both build; the first stored layout wins and both callers get it.
func internedLayout(k layoutKey) (*layout, error) {
	arena.mu.Lock()
	l := arena.layouts[k]
	arena.mu.Unlock()
	if l != nil {
		return l, nil
	}
	l, err := k.build()
	if err != nil {
		return nil, err
	}
	arena.mu.Lock()
	defer arena.mu.Unlock()
	if prev := arena.layouts[k]; prev != nil {
		return prev, nil
	}
	if n := l.bytes(); arena.bytes+n <= arenaCapBytes {
		if arena.layouts == nil {
			arena.layouts = make(map[layoutKey]*layout)
		}
		arena.layouts[k] = l
		arena.bytes += n
	}
	return l, nil
}

// Generator implements Stream for a benchmark profile. Its layout's
// backing arrays are shared and read-only (the slice headers are copied
// in so the fetch path does not chase a pointer); only the cursor fields
// below it are per stream.
type Generator struct {
	prof Profile
	geom isa.Geometry
	layout

	dyn       *rng.Rand // dynamic decisions: taken, iteration counts, data addresses
	ri        int       // current region
	pos       int       // position in region body
	itersLeft int
	streamPos uint64
}

// NewGenerator returns a generator over the (deterministic) code layout
// for a profile on the given geometry, with the dynamic state primed. The
// layout is built once per process and shared by every generator for the
// same (profile, geometry).
func NewGenerator(prof Profile, geom isa.Geometry) (*Generator, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if prof.MeanOps < 1 || prof.MeanOps > float64(geom.TotalIssueWidth()) {
		return nil, fmt.Errorf("synth: %s: mean ops %.2f outside [1,%d]",
			prof.Name, prof.MeanOps, geom.TotalIssueWidth())
	}
	if prof.LoopInstrs <= 0 || prof.LoopIters <= 0 {
		return nil, fmt.Errorf("synth: %s: loop shape must be positive", prof.Name)
	}
	if prof.CodeKB < 0 || codeEnd(prof, geom) > math.MaxUint32 {
		return nil, fmt.Errorf("synth: %s: code footprint %d KB does not fit 32-bit code addresses",
			prof.Name, prof.CodeKB)
	}
	l, err := internedLayout(layoutKey{prof, geom})
	if err != nil {
		return nil, err
	}
	g := &Generator{prof: prof, geom: geom, layout: *l}
	g.Reset(0)
	return g, nil
}

// MustNewGenerator panics on error (known-good catalog profiles).
func MustNewGenerator(prof Profile, geom isa.Geometry) *Generator {
	g, err := NewGenerator(prof, geom)
	if err != nil {
		panic(err)
	}
	return g
}

// Name implements Stream.
func (g *Generator) Name() string { return g.prof.Name }

// CodeCycleInstrs estimates the instructions executed per full pass over
// the benchmark's code footprint (every region, every iteration). Warmup
// phases should cover at least one pass so compulsory ICache misses do not
// bias short scaled-down measurements.
func (g *Generator) CodeCycleInstrs() int64 {
	var total int64
	for _, body := range g.regions {
		total += int64(len(body)) * int64(g.prof.LoopIters)
	}
	return total
}

// Length implements Stream.
func (g *Generator) Length(scaleDiv int64) int64 {
	if scaleDiv < 1 {
		scaleDiv = 1
	}
	n := int64(g.prof.LengthMInstr * 1e6 / float64(scaleDiv))
	if n < 1 {
		n = 1
	}
	return n
}

// Reset implements Stream. It reseeds the dynamic generator in place so a
// respawn allocates nothing.
func (g *Generator) Reset(variant uint64) {
	seed := g.prof.Seed*0x9e37_79b9 + 0xd1b5_4a32 + variant*0x100_0001b3
	if g.dyn == nil {
		g.dyn = rng.New(seed)
	} else {
		g.dyn.Seed(seed)
	}
	g.ri = 0
	g.pos = 0
	g.itersLeft = g.jitterIters(g.prof.LoopIters)
	g.streamPos = 0
}

// codeBaseOf is where a profile's code image starts: codeBase plus a
// seed-derived page offset.
func codeBaseOf(prof Profile) uint64 { return codeBase + (prof.Seed%64)*4096 }

// codeEnd bounds the end address of the layout layoutKey.build produces,
// without building it: regions are laid out until CodeKB is reached, so
// the last region overshoots by at most one maximal region body.
func codeEnd(prof Profile, geom isa.Geometry) uint64 {
	maxBody := uint64(prof.LoopInstrs)/2 + uint64(prof.LoopInstrs) + 2
	maxSize := 4 * uint64(geom.TotalIssueWidth())
	return codeBaseOf(prof) + uint64(prof.CodeKB)*1024 + maxBody*maxSize
}

// build lays out loop regions until the code footprint reaches CodeKB.
// Layout is derived purely from the profile seed and geometry.
func (k layoutKey) build() (*layout, error) {
	prof, geom := k.prof, k.geom
	r := rng.New(prof.Seed ^ 0xc0de_5eed)
	pc := codeBaseOf(prof)
	targetBytes := uint64(prof.CodeKB) * 1024
	var (
		total  uint64
		body   []template
		starts []int
		shapes []shape
		index  = make(map[isa.InstrDemand]uint16)
	)
	for total < targetBytes || len(starts) == 0 {
		bodyLen := prof.LoopInstrs/2 + r.Intn(prof.LoopInstrs+1)
		if bodyLen < 2 {
			bodyLen = 2
		}
		vecLen := 0
		if prof.BurstProb > 0 {
			// SLAP-style variable vector length: each region is one
			// strip-mined vector loop with its own VL, a multiple of the
			// per-cluster issue width up to the full machine width. The
			// draw is guarded so BurstProb==0 profiles consume an
			// unchanged layout-RNG stream.
			vecLen = geom.IssueWidth * (1 + r.Intn(geom.Clusters))
		}
		starts = append(starts, len(body))
		for i := 0; i < bodyLen; i++ {
			last := i == bodyLen-1
			d, size, br := k.buildTemplate(r, last, bodyLen-1-i, vecLen)
			idx, ok := index[d]
			if !ok {
				if len(shapes) == math.MaxUint16 {
					return nil, fmt.Errorf("synth: %s: layout has more than %d distinct instruction demands",
						prof.Name, math.MaxUint16)
				}
				idx = uint16(len(shapes))
				index[d] = idx
				live, stores := Masks(&d)
				shapes = append(shapes, shape{demand: d, live: live, stores: stores, size: size})
			}
			body = append(body, template{pc: uint32(pc), shape: idx, br: br})
			pc += uint64(size)
			total += uint64(size)
		}
	}
	// Exact-size copies: the arena keeps these for the life of the process.
	body = slices.Clone(body)
	l := &layout{regions: make([][]template, len(starts)), shapes: slices.Clone(shapes)}
	for i, start := range starts {
		end := len(body)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		l.regions[i] = body[start:end:end]
	}
	return l, nil
}

// buildTemplate synthesizes one compiler-legal instruction template and
// returns its demand, size in bytes and packed branch byte. A non-zero
// vecLen marks the enclosing region as a vector loop: templates then
// become wide-op bursts with probability BurstProb, occupying vecLen issue
// slots spread evenly across clusters (SIMD lane groups).
func (key layoutKey) buildTemplate(r *rng.Rand, backEdge bool, room int, vecLen int) (d isa.InstrDemand, size uint32, br uint8) {
	w := key.geom.IssueWidth
	maxOps := key.geom.TotalIssueWidth()
	burst := vecLen > 0 && r.Bool(key.prof.BurstProb)
	var ops int
	if burst {
		ops = vecLen
	} else {
		// ops ~ 1 + Binomial(maxOps-1, p) with mean MeanOps, compensated for
		// the ~2*CommProb ops the send/recv pairs add on average so the
		// measured ops/instruction lands on MeanOps.
		target := key.prof.MeanOps - 2*key.prof.CommProb
		if target < 1 {
			target = 1
		}
		p := (target - 1) / float64(maxOps-1)
		ops = 1
		for i := 0; i < maxOps-1; i++ {
			if r.Bool(p) {
				ops++
			}
		}
	}

	// Cluster assignment mimics Bottom-Up-Greedy: operations follow their
	// data. Placement is bimodal — dependence chains pack into one cluster
	// (dense bundles that cause operation-level resource conflicts between
	// threads), while independent operations spread across clusters (thin
	// bundles that cause partial cluster-level conflicts) — and the anchor
	// cluster wanders instruction to instruction. Both kinds of
	// variability are what give the merging hardware conflicts to resolve;
	// renaming alone cannot separate threads whose placements wander.
	// Vector bursts instead spread lane groups evenly over as many
	// clusters as the VL fills — the dense, slack-free placement a
	// vectorizing compiler emits.
	k := (ops + w - 1) / w
	if burst {
		if k > key.geom.Clusters {
			k = key.geom.Clusters
		}
	} else if !r.Bool(0.5) { // spread mode
		spread := key.prof.SpreadProb
		if spread == 0 {
			spread = 0.85
		}
		for k < key.geom.Clusters && k < ops && r.Bool(spread) {
			k++
		}
	}
	start := 0
	if r.Bool(0.5) {
		start = r.Intn(key.geom.Clusters)
	}
	var perCluster [isa.MaxClusters]int
	for i := 0; i < ops; i++ {
		perCluster[(start+i%k)%key.geom.Clusters]++
	}

	memBudget := int(float64(ops)*key.prof.MemFrac + 0.5)
	mulBudget := int(float64(ops)*key.prof.MulFrac + 0.5)
	for j := 0; j < k; j++ {
		c := (start + j) % key.geom.Clusters
		n := perCluster[c]
		b := isa.BundleDemand{Ops: uint8(n)}
		if memBudget > 0 && key.geom.MemUnits > 0 && n > 0 {
			b.Mem = 1
			memBudget--
			n--
			if r.Bool(key.prof.StoreFrac) {
				b.Stor = true
			} else {
				b.Load = true
			}
		}
		for n > 0 && mulBudget > 0 && int(b.Mul) < key.geom.Muls {
			b.Mul++
			mulBudget--
			n--
		}
		b.ALU = uint8(n)
		d.B[c] = b
	}

	// Inter-cluster copy pair: one extra ALU-class op on two clusters.
	if key.geom.Clusters > 1 && r.Bool(key.prof.CommProb) {
		src := r.Intn(key.geom.Clusters)
		dst := (src + 1 + r.Intn(key.geom.Clusters-1)) % key.geom.Clusters
		for _, c := range []int{src, dst} {
			if int(d.B[c].Ops) < w && int(d.B[c].ALU) < key.geom.ALUs {
				d.B[c].Ops++
				d.B[c].ALU++
			}
			d.B[c].Comm = d.B[c].Ops > 0
		}
		d.HasComm = d.B[src].Comm || d.B[dst].Comm
		if d.HasComm {
			ops = d.NumOps()
		}
	}

	// Control flow: the branch operation is one of the instruction's
	// ALU-class operations (it needs no separate demand accounting; the
	// Taken flag carries the timing semantics).
	size = uint32(4 * d.NumOps())
	switch {
	case backEdge:
		br = brBackEdge
	case room > 0 && r.Bool(key.prof.BranchProb):
		skip := 1 + r.Intn(3)
		if skip > room {
			skip = room
		}
		br = brInner | uint8(skip)<<brSkipShift
	}
	if size == 0 {
		size = 4
	}
	return d, size, br
}

func (g *Generator) jitterIters(mean int) int {
	if mean <= 1 {
		return 1
	}
	// Uniform in [mean/2, 3*mean/2].
	lo := mean / 2
	if lo < 1 {
		lo = 1
	}
	return lo + g.dyn.Intn(mean+1)
}

// Next implements Stream.
func (g *Generator) Next(t *TInst) {
	g.step(g.regions[g.ri], t)
}

// NextN implements BatchStream: it emits the next len(out) instructions in
// one call, caching the current loop region across the run so the template
// walk stays in registers. The produced trace is exactly what len(out)
// Next calls would have produced.
func (g *Generator) NextN(out []TInst) {
	ri := -1
	var body []template
	for i := range out {
		if g.ri != ri {
			ri = g.ri
			body = g.regions[ri]
		}
		g.step(body, &out[i])
	}
}

// step emits one instruction from the current position of body (which
// must be g.regions[g.ri]) and advances the trace's control flow.
func (g *Generator) step(body []template, t *TInst) {
	tm := body[g.pos]
	sh := &g.shapes[tm.shape]
	t.Demand = sh.demand
	t.PC = uint64(tm.pc)
	t.Size = sh.size
	t.Taken = false
	t.IsBranch = tm.br != brNone
	t.Live = sh.live
	t.Stores = sh.stores

	// Data addresses for the cache model.
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

	// Advance control flow.
	switch tm.br & brKindMask {
	case brBackEdge:
		if g.itersLeft > 0 {
			g.itersLeft--
			t.Taken = true
			g.pos = 0
			return
		}
		// Loop exit: fall through to the next region; wrapping from the
		// last region back to the first is a taken jump.
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
		g.pos = 0 // defensive; back-edge handling should prevent this
	}
}

// MeasuredShape summarizes a sample of the stream; used by calibration
// tests and cmd/tracegen.
type MeasuredShape struct {
	Instrs      int64
	Ops         int64
	TakenFrac   float64
	MemPerInstr float64
	CommFrac    float64
	OpsPerInstr float64
}

// Measure draws n instructions (without disturbing determinism guarantees —
// call Reset afterwards if reuse is intended) and reports aggregate shape.
func Measure(s Stream, n int64) MeasuredShape {
	var t TInst
	var sh MeasuredShape
	if n <= 0 {
		return sh
	}
	var taken, comm, mem int64
	for i := int64(0); i < n; i++ {
		s.Next(&t)
		sh.Instrs++
		sh.Ops += int64(t.Demand.NumOps())
		if t.Taken {
			taken++
		}
		if t.Demand.HasComm {
			comm++
		}
		for c := range t.MemAddr {
			if t.Demand.B[c].Mem > 0 {
				mem++
			}
		}
	}
	sh.TakenFrac = float64(taken) / float64(n)
	sh.CommFrac = float64(comm) / float64(n)
	sh.MemPerInstr = float64(mem) / float64(n)
	sh.OpsPerInstr = float64(sh.Ops) / float64(n)
	return sh
}
