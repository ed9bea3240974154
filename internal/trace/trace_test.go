package trace

import (
	"bytes"
	"strings"
	"testing"

	"vexsmt/internal/isa"
	"vexsmt/internal/synth"
)

func record(t *testing.T, bench string, n int) []synth.TInst {
	t.Helper()
	p, ok := synth.ByName(bench)
	if !ok {
		t.Fatal("unknown benchmark")
	}
	return Record(synth.MustNewGenerator(p, isa.ST200x4), n)
}

// encode returns the in-memory records of instrs on the 4-cluster machine.
func encode(t *testing.T, instrs []synth.TInst) Records {
	t.Helper()
	recs, err := Encode(4, instrs)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	instrs := record(t, "idct", 5000)
	var buf bytes.Buffer
	if err := Write(&buf, "idct", 4, instrs); err != nil {
		t.Fatal(err)
	}
	name, clusters, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "idct" || clusters != 4 {
		t.Fatalf("header: %q %d", name, clusters)
	}
	if len(got) != len(instrs) {
		t.Fatalf("count %d, want %d", len(got), len(instrs))
	}
	for i := range instrs {
		if got[i] != instrs[i] {
			t.Fatalf("instr %d mismatch:\n%+v\n%+v", i, got[i], instrs[i])
		}
	}
}

func TestRoundTripAllBenchmarks(t *testing.T) {
	for _, p := range synth.Catalog() {
		instrs := record(t, p.Name, 500)
		var buf bytes.Buffer
		if err := Write(&buf, p.Name, 4, instrs); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		_, _, got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i := range instrs {
			if got[i] != instrs[i] {
				t.Fatalf("%s instr %d mismatch", p.Name, i)
			}
		}
	}
}

func TestBadInputs(t *testing.T) {
	if _, _, _, err := Read(strings.NewReader("BOGUS data")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, _, _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	var buf bytes.Buffer
	if err := Write(&buf, "x", 0, nil); err == nil {
		t.Fatal("zero clusters accepted")
	}
	if err := Write(&buf, strings.Repeat("n", 300), 4, nil); err == nil {
		t.Fatal("oversized name accepted")
	}
}

func TestTruncatedStream(t *testing.T) {
	instrs := record(t, "djpeg", 100)
	var buf bytes.Buffer
	if err := Write(&buf, "djpeg", 4, instrs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 3} {
		if _, _, _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReplayerLoops(t *testing.T) {
	instrs := record(t, "gsmencode", 50)
	r, err := NewReplayer("gsm", encode(t, instrs))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "gsm" || r.Length(123) != 50 {
		t.Fatal("metadata wrong")
	}
	var ti synth.TInst
	for i := 0; i < 50; i++ {
		r.Next(&ti)
	}
	r.Next(&ti) // wraps
	if ti != instrs[0] {
		t.Fatal("replayer did not loop")
	}
	r.Reset(99)
	r.Next(&ti)
	if ti != instrs[0] {
		t.Fatal("reset did not rewind")
	}
}

func TestEmptyReplayerRejected(t *testing.T) {
	if _, err := NewReplayer("x", Records{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestReplayerNextNMatchesNext(t *testing.T) {
	// NextN must deliver exactly the sequence Next would, across batch
	// sizes that divide the trace, straddle the wrap point, and exceed
	// the whole trace length.
	instrs := record(t, "idct", 37)
	for _, batch := range []int{1, 7, 36, 37, 38, 64, 100} {
		ref, _ := NewReplayer("a", encode(t, instrs))
		got, _ := NewReplayer("b", encode(t, instrs))
		want := make([]synth.TInst, batch)
		out := make([]synth.TInst, batch)
		for round := 0; round < 5; round++ {
			for i := range want {
				ref.Next(&want[i])
			}
			got.NextN(out)
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("batch %d round %d: diverged at %d", batch, round, i)
				}
			}
		}
	}
}

func TestReplayerNextNZeroAlloc(t *testing.T) {
	// The refill path must not allocate: replayed cells share one set of
	// records and ride the same zero-alloc fetch loop as synthetic streams.
	instrs := record(t, "mcf", 100)
	r, err := NewReplayer("mcf", encode(t, instrs))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]synth.TInst, synth.BatchSize)
	if n := testing.AllocsPerRun(200, func() { r.NextN(out) }); n != 0 {
		t.Fatalf("NextN allocates %v per refill, want 0", n)
	}
}

func TestIsBranchRoundTrip(t *testing.T) {
	// Bit 2 of the flags byte carries IsBranch independent of Taken:
	// a not-taken branch must survive a round trip.
	instrs := []synth.TInst{
		{PC: 0x1000, Size: 4, IsBranch: true, Taken: false},
		{PC: 0x1004, Size: 4, IsBranch: true, Taken: true},
		{PC: 0x1008, Size: 4},
	}
	for i := range instrs {
		instrs[i].Demand.B[0] = isa.BundleDemand{Ops: 1, ALU: 1}
	}
	var buf bytes.Buffer
	if err := Write(&buf, "br", 4, instrs); err != nil {
		t.Fatal(err)
	}
	_, _, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range instrs {
		if got[i].IsBranch != instrs[i].IsBranch || got[i].Taken != instrs[i].Taken {
			t.Fatalf("instr %d: IsBranch=%v Taken=%v, want IsBranch=%v Taken=%v",
				i, got[i].IsBranch, got[i].Taken, instrs[i].IsBranch, instrs[i].Taken)
		}
	}
}

func TestIsBranchLegacyInference(t *testing.T) {
	// Traces written before the IsBranch flag only set bit 0 for taken
	// branches. The reader must infer IsBranch from Taken when bit 2 is
	// clear. Craft the legacy encoding by writing a modern trace and
	// clearing bit 2 in the serialized flags byte.
	instrs := []synth.TInst{{PC: 0x2000, Size: 4, IsBranch: true, Taken: true}}
	instrs[0].Demand.B[0] = isa.BundleDemand{Ops: 1, ALU: 1}
	var buf bytes.Buffer
	if err := Write(&buf, "old", 4, instrs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Header: magic(4) + clusters(1) + nameLen(1) + name(3) + count(4),
	// then pc(8) + size(4) put the flags byte at offset 25.
	const flagsOff = 4 + 1 + 1 + 3 + 4 + 8 + 4
	if raw[flagsOff]&4 == 0 {
		t.Fatal("expected bit 2 set in modern encoding")
	}
	raw[flagsOff] &^= 4
	_, _, got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].IsBranch || !got[0].Taken {
		t.Fatalf("legacy inference failed: %+v", got[0])
	}
}

func TestReplayerMatchesGenerator(t *testing.T) {
	// A replayed trace must drive the same instruction sequence as the
	// generator it was recorded from.
	p, _ := synth.ByName("cjpeg")
	gen := synth.MustNewGenerator(p, isa.ST200x4)
	instrs := Record(gen, 1000)
	rep, _ := NewReplayer("cjpeg", encode(t, instrs))
	gen2 := synth.MustNewGenerator(p, isa.ST200x4)
	var a, b synth.TInst
	for i := 0; i < 1000; i++ {
		rep.Next(&a)
		gen2.Next(&b)
		if a != b {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}
