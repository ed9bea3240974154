package bpred

import (
	"strings"
	"testing"
)

// stream is a deterministic (pc, taken) sequence for feeding predictors.
type event struct {
	pc    uint64
	taken bool
}

// synthStream builds a mixed workload: a handful of static branches with
// different behaviors (biased, alternating, history-dependent) visited in
// a fixed round-robin, plus an xorshift-scrambled PC stream so tagged
// tables see collisions.
func synthStream(n int) []event {
	ev := make([]event, 0, n)
	var x uint64 = 0x9e3779b97f4a7c15
	for i := 0; len(ev) < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch i % 4 {
		case 0: // strongly taken loop back-edge
			ev = append(ev, event{pc: 0x1000, taken: i%32 != 0})
		case 1: // alternating branch
			ev = append(ev, event{pc: 0x2004, taken: (i/4)%2 == 0})
		case 2: // period-3 pattern on one PC
			ev = append(ev, event{pc: 0x3008, taken: (i/4)%3 != 0})
		default: // scattered PCs, biased not-taken
			ev = append(ev, event{pc: x & 0xffffc, taken: x%10 == 0})
		}
	}
	return ev
}

func TestNamesAndCanonical(t *testing.T) {
	for _, name := range Names() {
		got, err := Canonical(name)
		if err != nil || got != name {
			t.Fatalf("Canonical(%q) = %q, %v", name, got, err)
		}
		up, err := Canonical(" " + strings.ToUpper(name) + " ")
		if err != nil || up != name {
			t.Fatalf("Canonical of noisy %q = %q, %v", name, up, err)
		}
	}
	if got, err := Canonical(""); err != nil || got != Default {
		t.Fatalf("Canonical(\"\") = %q, %v; want %q", got, err, Default)
	}
	_, err := Canonical("perceptron")
	if err == nil {
		t.Fatal("Canonical accepted unknown model")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid model %q", err, name)
		}
	}
	if _, err := New("perceptron"); err == nil {
		t.Fatal("New accepted unknown model")
	}
}

func TestNameMatchesRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
	}
	p, err := New("")
	if err != nil || p.Name() != Default {
		t.Fatalf("New(\"\") = %v, %v; want %s", p, err, Default)
	}
}

func TestStaticPredictsNotTakenAndNeverLearns(t *testing.T) {
	p, _ := New("static")
	for _, e := range synthStream(1000) {
		if p.Predict(e.pc) {
			t.Fatalf("static predicted taken at pc=%#x", e.pc)
		}
		p.Update(e.pc, e.taken)
	}
}

// TestDeterminism feeds two independently constructed instances the same
// stream and requires bit-for-bit agreement on every prediction, then
// checks Reset restores just-constructed behavior.
func TestDeterminism(t *testing.T) {
	stream := synthStream(20000)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, _ := New(name)
			b, _ := New(name)
			var first []bool
			for _, e := range stream {
				pa, pb := a.Predict(e.pc), b.Predict(e.pc)
				if pa != pb {
					t.Fatalf("instances diverged at pc=%#x", e.pc)
				}
				first = append(first, pa)
				a.Update(e.pc, e.taken)
				b.Update(e.pc, e.taken)
			}
			a.Reset()
			for i, e := range stream {
				if got := a.Predict(e.pc); got != first[i] {
					t.Fatalf("%s: post-Reset replay diverged at event %d", name, i)
				}
				a.Update(e.pc, e.taken)
			}
		})
	}
}

// TestPredictIsPure checks Predict has no side effects: interleaving extra
// Predict calls must not change the prediction sequence.
func TestPredictIsPure(t *testing.T) {
	stream := synthStream(5000)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, _ := New(name)
			b, _ := New(name)
			for _, e := range stream {
				for k := 0; k < 3; k++ {
					a.Predict(e.pc ^ uint64(k)<<20)
				}
				if a.Predict(e.pc) != b.Predict(e.pc) {
					t.Fatalf("extra Predict calls changed state at pc=%#x", e.pc)
				}
				a.Update(e.pc, e.taken)
				b.Update(e.pc, e.taken)
			}
		})
	}
}

// TestZeroAllocHotPath enforces the interface contract: neither Predict
// nor Update may allocate.
func TestZeroAllocHotPath(t *testing.T) {
	stream := synthStream(256)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			p, _ := New(name)
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				e := stream[i%len(stream)]
				p.Predict(e.pc)
				p.Update(e.pc, e.taken)
				i++
			})
			if allocs != 0 {
				t.Fatalf("%s hot path allocates %.1f/op", name, allocs)
			}
		})
	}
}

func accuracy(p Predictor, stream []event) float64 {
	hit := 0
	for _, e := range stream {
		if p.Predict(e.pc) == e.taken {
			hit++
		}
		p.Update(e.pc, e.taken)
	}
	return float64(hit) / float64(len(stream))
}

// TestAccuracyBiasedStream: a 90%-taken branch should be learned by every
// adaptive model while static stays near 10%.
func TestAccuracyBiasedStream(t *testing.T) {
	var stream []event
	for i := 0; i < 10000; i++ {
		stream = append(stream, event{pc: 0x4000, taken: i%10 != 0})
	}
	for _, name := range []string{"bimodal", "gshare", "tage"} {
		p, _ := New(name)
		if acc := accuracy(p, stream); acc < 0.80 {
			t.Errorf("%s accuracy %.3f on 90%%-taken stream, want >= 0.80", name, acc)
		}
	}
	p, _ := New("static")
	if acc := accuracy(p, stream); acc > 0.15 {
		t.Errorf("static accuracy %.3f on 90%%-taken stream, want ~0.10", acc)
	}
}

// TestAccuracyHistoryPattern: a short repeating pattern (period 4) on one
// PC is invisible to bimodal (50/50 counters) but trivial for the
// history-indexed models.
func TestAccuracyHistoryPattern(t *testing.T) {
	var stream []event
	pattern := []bool{true, true, false, false}
	for i := 0; i < 10000; i++ {
		stream = append(stream, event{pc: 0x5000, taken: pattern[i%len(pattern)]})
	}
	for _, name := range []string{"gshare", "tage"} {
		p, _ := New(name)
		if acc := accuracy(p, stream); acc < 0.95 {
			t.Errorf("%s accuracy %.3f on period-4 pattern, want >= 0.95", name, acc)
		}
	}
	p, _ := New("bimodal")
	if acc := accuracy(p, stream); acc > 0.75 {
		t.Errorf("bimodal accuracy %.3f on period-4 pattern, want well below the history models", acc)
	}
}

// TestAccuracyLongHistory: a taken-every-32nd loop-exit pattern needs 31
// bits of history — beyond gshare's 12-bit register, within reach of
// tage's 32- and 64-bit banks.
func TestAccuracyLongHistory(t *testing.T) {
	var stream []event
	for i := 0; i < 40000; i++ {
		stream = append(stream, event{pc: 0x6000, taken: i%32 == 31})
	}
	pt, _ := New("tage")
	pg, _ := New("gshare")
	accT := accuracy(pt, stream)
	accG := accuracy(pg, stream)
	if accT <= accG {
		t.Errorf("tage %.4f should beat gshare %.4f on period-32 pattern", accT, accG)
	}
	if accT < 0.99 {
		t.Errorf("tage accuracy %.4f on period-32 pattern, want >= 0.99", accT)
	}
}

// BenchmarkPredictUpdate times one Predict and the Update that follows it,
// the simulator's per-branch use of a model, over the mixed synthetic
// stream.
func BenchmarkPredictUpdate(b *testing.B) {
	stream := synthStream(1 << 16)
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			p, _ := New(name)
			for i := 0; i < b.N; i++ {
				e := stream[i&(len(stream)-1)]
				p.Predict(e.pc)
				p.Update(e.pc, e.taken)
			}
		})
	}
}
