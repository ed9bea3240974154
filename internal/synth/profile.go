// Package synth generates synthetic compiler-scheduled VLIW instruction
// streams standing in for the paper's benchmark binaries (MediaBench,
// SPECint 2000, imgpipe, x264, idct, colorspace — Figure 13a). The real
// binaries require the proprietary VEX/ST200 toolchain; each profile below
// reproduces the *timing-relevant shape* of one benchmark: operations per
// instruction and their spread over clusters (horizontal utilization),
// functional unit mix, branch behaviour, inter-cluster copy frequency, and
// instruction/data footprints that drive the real cache models. Profiles
// are calibrated so single-thread IPC with perfect and real memory lands
// near the paper's IPCp/IPCr columns.
package synth

// ILPClass is the paper's l/m/h classification by IPCp.
type ILPClass byte

const (
	LowILP    ILPClass = 'l'
	MediumILP ILPClass = 'm'
	HighILP   ILPClass = 'h'
)

func (c ILPClass) String() string {
	switch c {
	case LowILP:
		return "l"
	case MediumILP:
		return "m"
	case HighILP:
		return "h"
	}
	return "?"
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name  string
	Class ILPClass
	Seed  uint64

	// Instruction shape.
	MeanOps    float64 // mean RISC operations per VLIW instruction (1..16)
	SpreadProb float64 // per-template probability of spilling onto one more cluster (0 = default 0.85)
	MemFrac    float64 // fraction of ops targeted at the LSU (capped 1/cluster)
	MulFrac    float64 // fraction of ops targeted at multipliers (capped 2/cluster)
	StoreFrac  float64 // of memory ops, fraction that are stores
	CommProb   float64 // probability an instruction carries a send/recv pair
	BurstProb  float64 // probability a template is a wide vector-op burst (0 = scalar profile)

	// Control flow: loop regions with back-edges plus inner conditional
	// branches that skip forward a few instructions.
	BranchProb float64 // inner conditional branch per instruction
	TakenProb  float64 // probability an inner branch is taken
	LoopInstrs int     // mean loop body length (instructions)
	LoopIters  int     // mean iterations per loop entry

	// Footprints (drive the real cache models).
	CodeKB     int     // total code working set
	DataKB     int     // random-access data footprint
	StreamKB   int     // streaming buffer size (wrap-around)
	StreamFrac float64 // fraction of memory accesses that stream

	// LengthMInstr is the benchmark's run-to-completion length in millions
	// of VLIW instructions at paper scale (30–100M for the short ones;
	// mcf/bzip2 exceed the 200M limit and never complete).
	LengthMInstr float64
}

// Catalog returns the twelve benchmark profiles of Figure 13(a), in the
// paper's order. Parameter values were calibrated against the paper's
// single-thread IPCr/IPCp columns (see TestCalibration in the sim package
// and EXPERIMENTS.md).
func Catalog() []Profile {
	return []Profile{
		{
			// Minimum cost flow: pointer-chasing integer code, low ILP,
			// sizeable random data footprint (IPCp 1.34 -> IPCr 0.96).
			Name: "mcf", Class: LowILP, Seed: 0x6d6366,
			MeanOps: 1.61, MemFrac: 0.30, MulFrac: 0.04, StoreFrac: 0.45, CommProb: 0.05,
			BranchProb: 0.25, TakenProb: 0.45, LoopInstrs: 12, LoopIters: 6,
			CodeKB: 24, DataKB: 72, StreamKB: 512, StreamFrac: 0.95,
			LengthMInstr: 250,
		},
		{
			// Bzip2 compression: very branchy, narrow, mostly cache-resident
			// (IPCp 0.83 -> IPCr 0.81).
			Name: "bzip2", Class: LowILP, Seed: 0x627a32,
			MeanOps: 1.04, MemFrac: 0.25, MulFrac: 0.02, StoreFrac: 0.30, CommProb: 0.04,
			BranchProb: 0.28, TakenProb: 0.50, LoopInstrs: 10, LoopIters: 8,
			CodeKB: 40, DataKB: 56, StreamKB: 96, StreamFrac: 0.20,
			LengthMInstr: 250,
		},
		{
			// Blowfish encryption: streams through the plaintext buffer
			// (IPCp 1.47 -> IPCr 1.11).
			Name: "blowfish", Class: LowILP, Seed: 0x626c66,
			MeanOps: 1.68, MemFrac: 0.24, MulFrac: 0.03, StoreFrac: 0.20, CommProb: 0.06,
			BranchProb: 0.18, TakenProb: 0.40, LoopInstrs: 16, LoopIters: 20,
			CodeKB: 12, DataKB: 256, StreamKB: 512, StreamFrac: 0.85,
			LengthMInstr: 60,
		},
		{
			// GSM speech encoder: small kernels, everything fits in cache
			// (IPCp = IPCr = 1.07).
			Name: "gsmencode", Class: LowILP, Seed: 0x67736d,
			MeanOps: 1.29, MemFrac: 0.22, MulFrac: 0.08, StoreFrac: 0.30, CommProb: 0.06,
			BranchProb: 0.22, TakenProb: 0.45, LoopInstrs: 14, LoopIters: 12,
			CodeKB: 16, DataKB: 12, StreamKB: 16, StreamFrac: 0.30,
			LengthMInstr: 40,
		},
		{
			// G.721 voice encoder: medium ILP DSP loops, cache-resident
			// (IPCp 1.76 -> IPCr 1.75).
			Name: "g721encode", Class: MediumILP, Seed: 0x673765,
			MeanOps: 1.97, MemFrac: 0.20, MulFrac: 0.12, StoreFrac: 0.25, CommProb: 0.10,
			BranchProb: 0.12, TakenProb: 0.40, LoopInstrs: 24, LoopIters: 30,
			CodeKB: 20, DataKB: 16, StreamKB: 16, StreamFrac: 0.20,
			LengthMInstr: 50,
		},
		{
			// G.721 voice decoder: twin of the encoder (IPCp 1.76 -> 1.75).
			Name: "g721decode", Class: MediumILP, Seed: 0x673764,
			MeanOps: 1.97, MemFrac: 0.20, MulFrac: 0.12, StoreFrac: 0.25, CommProb: 0.10,
			BranchProb: 0.12, TakenProb: 0.40, LoopInstrs: 22, LoopIters: 28,
			CodeKB: 20, DataKB: 16, StreamKB: 16, StreamFrac: 0.20,
			LengthMInstr: 50,
		},
		{
			// JPEG encoder: DCT/quantization loops streaming the input image
			// (IPCp 1.66 -> IPCr 1.12: significant memory stalls).
			Name: "cjpeg", Class: MediumILP, Seed: 0x636a70,
			MeanOps: 1.83, MemFrac: 0.28, MulFrac: 0.14, StoreFrac: 0.30, CommProb: 0.10,
			BranchProb: 0.10, TakenProb: 0.40, LoopInstrs: 20, LoopIters: 16,
			CodeKB: 24, DataKB: 24, StreamKB: 1024, StreamFrac: 0.95,
			LengthMInstr: 35,
		},
		{
			// JPEG decoder: output tiles stay cache-resident
			// (IPCp 1.77 -> IPCr 1.76).
			Name: "djpeg", Class: MediumILP, Seed: 0x646a70,
			MeanOps: 1.95, MemFrac: 0.24, MulFrac: 0.14, StoreFrac: 0.35, CommProb: 0.10,
			BranchProb: 0.10, TakenProb: 0.40, LoopInstrs: 20, LoopIters: 16,
			CodeKB: 24, DataKB: 16, StreamKB: 16, StreamFrac: 0.25,
			LengthMInstr: 30,
		},
		{
			// Imaging pipeline used in high-performance printers: wide
			// software-pipelined loops (IPCp 4.05 -> IPCr 3.81).
			Name: "imgpipe", Class: HighILP, Seed: 0x696d67,
			MeanOps: 4.23, MemFrac: 0.22, MulFrac: 0.12, StoreFrac: 0.35, CommProb: 0.20,
			BranchProb: 0.02, TakenProb: 0.40, LoopInstrs: 26, LoopIters: 50,
			CodeKB: 28, DataKB: 32, StreamKB: 2048, StreamFrac: 0.08,
			LengthMInstr: 80,
		},
		{
			// H.264 encoder: wide SAD/transform kernels, good locality
			// (IPCp 4.04 -> IPCr 3.89).
			Name: "x264", Class: HighILP, Seed: 0x783264,
			MeanOps: 4.20, MemFrac: 0.20, MulFrac: 0.10, StoreFrac: 0.30, CommProb: 0.18,
			BranchProb: 0.03, TakenProb: 0.40, LoopInstrs: 24, LoopIters: 40,
			CodeKB: 40, DataKB: 48, StreamKB: 1024, StreamFrac: 0.04,
			LengthMInstr: 100,
		},
		{
			// Inverse DCT from ffmpeg: unrolled butterfly kernels
			// (IPCp 5.27 -> IPCr 4.79).
			Name: "idct", Class: HighILP, Seed: 0x696463,
			MeanOps: 5.43, MemFrac: 0.20, MulFrac: 0.16, StoreFrac: 0.40, CommProb: 0.22,
			BranchProb: 0.02, TakenProb: 0.35, LoopInstrs: 28, LoopIters: 60,
			CodeKB: 20, DataKB: 24, StreamKB: 1024, StreamFrac: 0.10,
			LengthMInstr: 45,
		},
		{
			// Production colour-space conversion: almost branch-free 16-wide
			// kernels streaming whole images (IPCp 8.88 -> IPCr 5.47).
			Name: "colorspace", Class: HighILP, Seed: 0x636c72,
			MeanOps: 9.00, MemFrac: 0.25, MulFrac: 0.14, StoreFrac: 0.40, CommProb: 0.30,
			BranchProb: 0.01, TakenProb: 0.30, LoopInstrs: 32, LoopIters: 80,
			CodeKB: 16, DataKB: 16, StreamKB: 4096, StreamFrac: 0.32,
			LengthMInstr: 70,
		},
	}
}

// ByName returns the profile with the given benchmark name, searching the
// paper catalog first and the vector stress catalog second.
func ByName(name string) (Profile, bool) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range VectorCatalog() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
