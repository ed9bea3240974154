//go:build race

package server

// The race detector randomly drops sync.Pool entries, so net/http's
// pooled readers count as allocations some runs and not others.
func init() { raceEnabled = true }
