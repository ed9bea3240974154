// Package cond turns a condition into an integer, the building block of
// the simulator's branch-free hot path: a simulated random outcome (a
// cache hit, a collision, a taken branch) feeds masks and counters
// through arithmetic instead of through a branch the host mispredicts.
package cond

// Integer is an integer type the hot path builds masks and counters in.
type Integer interface {
	~uint8 | ~uint64 | ~int64
}

// Bit is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func Bit[T Integer](b bool) T {
	var u T
	if b {
		u = 1
	}
	return u
}
