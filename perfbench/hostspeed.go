package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed normalization.
//
// A small shared VM moves between speed regimes: a fixed loop's rate
// varies by half again between windows a few seconds apart, and by a
// quarter between sets of runs minutes apart, as neighbours load the host.
// No amount of averaging inside a run removes a drift that lasts longer
// than the run. So while a run measures, it times a fixed piece of work
// written here, in the benchmark's own code, in short bursts on the CPUs
// the sweeps run on: from the parent beside each long cold sweep, and from
// the measuring process between short warm and peer sweeps. Each timing
// the run reports is scaled by probeRef over the probe's median time
// around it. The figures are therefore seconds on a host on which the
// probe takes probeRef, and a change to the program moves them while a
// change in the host's speed does not.

const (
	probeEvery = 20 * time.Millisecond
	// probeGap is the least time between probes run between sweeps: a
	// burst leaves the CPU caches cold for the next few cells.
	probeGap = 100 * time.Millisecond
	// probeRef is the probe time normalized figures are scaled to: about
	// the probe's time beside a sweep on a 2-vCPU x86-64 VM.
	probeRef = 1e-3
	// probeIters sizes one probe burst to about probeRef.
	probeIters = 120000
	// probeMinSamples is how many probe timings a window must hold; the
	// window around an interval widens until it has them.
	probeMinSamples = 5
)

// probeSample is one probe burst: its midpoint in Unix nanoseconds and its
// duration in seconds.
type probeSample struct {
	At  int64   `json:"at"`
	Dur float64 `json:"dur"`
}

// hostProbe is the fixed work: data-dependent loads and stores over a
// 1 MiB table and unpredictable branches, the mix of a simulator's inner
// loop and a server's hashing.
type hostProbe struct {
	table []uint32
	x     uint32
	sink  uint32
}

func newHostProbe() *hostProbe { return &hostProbe{table: make([]uint32, 1<<18), x: 2463534242} }

// run times one burst of the probe by the CPU time its thread used, so a
// burst that waited for its CPU behind the measured work reads the CPU's
// speed and not its share.
func (p *hostProbe) run() probeSample {
	runtime.LockOSThread() // the thread CPU clock must be this goroutine's
	defer runtime.UnlockOSThread()
	t0, c0 := time.Now(), threadCPUTime()
	x, acc, t := p.x, uint32(0), p.table
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & uint32(len(t)-1)
		v := t[j]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
		t[j] = v + x
	}
	p.x, p.sink = x, acc
	return probeSample{At: t0.Add(time.Since(t0) / 2).UnixNano(), Dur: (threadCPUTime() - c0).Seconds()}
}

// sampler times the probe every probeEvery on each of a set of CPUs until
// stopped.
type sampler struct {
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	perCPU  [][]probeSample
}

// startSampler probes each CPU in cpus from a thread bound to it, so the
// probe shares the CPU, and its speed, with the work measured there.
func startSampler(cpus []int) *sampler {
	s := &sampler{stop: make(chan struct{}), perCPU: make([][]probeSample, len(cpus))}
	for i, cpu := range cpus {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			runtime.LockOSThread()  // the thread exits with the goroutine
			_ = setAffinity(0, cpu) // unbound, the probe still samples the host
			p := newHostProbe()
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-tick.C:
					s.perCPU[i] = append(s.perCPU[i], p.run())
				}
			}
		}()
	}
	return s
}

// finish stops the sampler, waits for it and returns its samples in time
// order. It may be called more than once.
func (s *sampler) finish() []probeSample {
	s.stopped.Do(func() { close(s.stop) })
	s.wg.Wait()
	return mergeSamples(s.perCPU...)
}

// mergeSamples returns every sample of every list in time order.
func mergeSamples(lists ...[]probeSample) []probeSample {
	var all []probeSample
	for _, xs := range lists {
		all = append(all, xs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// speedFactor is probeRef over the median probe time of the samples in
// [from, to] (Unix nanoseconds), taking in the samples nearest the interval
// on either side until there are probeMinSamples; 1 when there are too few
// samples at all.
func speedFactor(samples []probeSample, from, to int64) float64 {
	if len(samples) < probeMinSamples {
		return 1
	}
	lo := sort.Search(len(samples), func(i int) bool { return samples[i].At >= from })
	hi := sort.Search(len(samples), func(i int) bool { return samples[i].At > to })
	for hi-lo < probeMinSamples {
		if hi == len(samples) || (lo > 0 && from-samples[lo-1].At <= samples[hi].At-to) {
			lo--
		} else {
			hi++
		}
	}
	durs := make([]float64, hi-lo)
	for i := range durs {
		durs[i] = samples[lo+i].Dur
	}
	return probeRef / median(durs)
}
