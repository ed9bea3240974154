package main

import (
	"math"
	"testing"
	"time"
)

// probesAt returns one sample a millisecond apart per duration, starting at
// t=0 ms.
func probesAt(durs ...float64) []probeSample {
	s := make([]probeSample, len(durs))
	for i, d := range durs {
		s[i] = probeSample{At: int64(i) * int64(time.Millisecond), Dur: d}
	}
	return s
}

func TestSpeedFactor(t *testing.T) {
	ms := int64(time.Millisecond)
	// Host twice as slow as the reference for the first ten samples, at
	// reference speed after, with one probe burst that was preempted.
	samples := probesAt(2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3,
		1e-3, 1e-3, 9e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3)
	for _, tc := range []struct {
		name     string
		from, to int64
		want     float64
	}{
		{"slow stretch", 2 * ms, 7 * ms, 0.5},
		{"fast stretch, outlier outvoted", 10 * ms, 16 * ms, 1},
		{"short interval widened to enough samples", 15 * ms, 15 * ms, 1},
		{"interval past the last sample", 40 * ms, 41 * ms, 1},
	} {
		if got := speedFactor(samples, tc.from, tc.to); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: factor %g, want %g", tc.name, got, tc.want)
		}
	}
	if got := speedFactor(samples[:probeMinSamples-1], 0, 1); got != 1 {
		t.Errorf("too few samples: factor %g, want 1", got)
	}
}

func TestAggregateScalesByHostSpeed(t *testing.T) {
	ms := int64(time.Millisecond)
	samples := probesAt(2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3, 2e-3)
	c := &childResult{
		Setup:  []timing{{S: 0.01, From: 0, To: 9 * ms}},
		Sweeps: []timing{{S: 0.4, From: 0, To: 9 * ms}},
		CellMs: [][]float64{{4, 8}},
	}
	agg := aggregate([]*childResult{c}, samples)
	if agg.setup[0] != 0.005 || agg.sweeps[0] != 0.2 || agg.rawSweeps[0] != 0.4 || agg.cellMs[0] != 2 || agg.cellMs[1] != 4 {
		t.Errorf("half-speed host: setup %v, sweeps %v (raw %v), cells %v; want every timing halved",
			agg.setup, agg.sweeps, agg.rawSweeps, agg.cellMs)
	}
}

func TestMergeSamplesOrdersByTime(t *testing.T) {
	got := mergeSamples([]probeSample{{At: 1}, {At: 5}}, nil, []probeSample{{At: 3}, {At: 0}})
	for i := 1; i < len(got); i++ {
		if got[i-1].At > got[i].At {
			t.Fatalf("merged samples out of order: %v", got)
		}
	}
	if len(got) != 4 {
		t.Errorf("merged %d samples, want 4", len(got))
	}
}

func TestSamplerStops(t *testing.T) {
	s := startSampler([]int{0})
	time.Sleep(3 * probeEvery)
	got := s.finish()
	if len(got) == 0 {
		t.Fatal("sampler took no samples")
	}
	for _, p := range got {
		if p.Dur <= 0 {
			t.Fatalf("probe sample %+v: want a positive duration", p)
		}
	}
	if again := s.finish(); len(again) != len(got) {
		t.Errorf("second finish returned %d samples, want the same %d", len(again), len(got))
	}
}
