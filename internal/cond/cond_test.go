package cond

import "testing"

func TestBit(t *testing.T) {
	if Bit[uint8](true) != 1 || Bit[uint8](false) != 0 {
		t.Error("Bit[uint8]")
	}
	if Bit[int64](true) != 1 || Bit[int64](false) != 0 {
		t.Error("Bit[int64]")
	}
	// Negated, a true bit is an all-ones mask.
	if -Bit[uint64](true) != ^uint64(0) || -Bit[uint64](false) != 0 {
		t.Error("-Bit[uint64]")
	}
}
