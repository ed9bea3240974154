//go:build !linux

package main

import "time"

// threadCPUTime falls back to wall time where the platform has no
// per-thread CPU clock.
func threadCPUTime() time.Duration { return time.Duration(time.Now().UnixNano()) }

// pinToCPU leaves the process unbound where the platform offers no
// per-thread affinity call.
func pinToCPU(int) error { return nil }

func setAffinity(int, int) error { return nil }
