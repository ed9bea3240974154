// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator. Determinism matters: the paper's
// experiments (random thread replacement on context switch, synthetic
// benchmark streams) must be exactly reproducible from a seed, and the
// generator sits on the hot path of trace generation, so it must be
// allocation-free and cheap.
//
// The core generator is SplitMix64 (Steele, Lea, Flood 2014), which passes
// BigCrush and needs only a 64-bit state word.
package rng

// Rand is a deterministic SplitMix64 pseudo-random generator. The zero value
// is a valid generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Seed resets the generator to the given seed.
func (r *Rand) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64-bit pseudo-random value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Uint32 returns the next 32-bit pseudo-random value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Draw returns the first bounded draw of a fresh generator seeded with
// seed, equivalent to New(seed).Intn(n) but allocation-free. It is the
// stateless form used for common-random-number schedules, where a draw
// must depend only on (seed, index), never on how many draws preceded it.
func Draw(seed uint64, n int) int {
	r := Rand{state: seed}
	return r.Intn(n)
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm fills dst with a pseudo-random permutation of [0, len(dst)) using the
// Fisher-Yates shuffle. It allocates nothing.
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Pick returns a weighted pick: index i is chosen with probability
// weights[i] / sum(weights). It panics if weights is empty or sums to <= 0.
func (r *Rand) Pick(weights []float64) int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		panic("rng: Pick with non-positive weight sum")
	}
	x := r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Split returns a new independent generator derived from this one's stream.
// Streams from Split are statistically independent of the parent's future
// output because SplitMix64's output function decorrelates nearby states.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64()}
}
