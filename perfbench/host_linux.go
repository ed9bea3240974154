//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// threadCPUTime is the CPU time the calling OS thread has used. Unlike
// wall time it leaves out time the thread waited for its CPU.
func threadCPUTime() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// setAffinity binds thread tid (0: the calling thread) to one CPU.
func setAffinity(tid, cpu int) error {
	var mask [16]uint64 // room for 1024 CPUs
	if cpu < 0 || cpu >= 64*len(mask) {
		return fmt.Errorf("pin to CPU %d: out of range", cpu)
	}
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinToCPU binds every thread of this process to one CPU. Threads started
// later inherit the binding from the thread that starts them, so the
// thread list is walked until a pass finds none left to bind.
func pinToCPU(cpu int) error {
	pinned := make(map[int]bool)
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return fmt.Errorf("pin to CPU %d: %w", cpu, err)
		}
		fresh := 0
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || pinned[tid] {
				continue
			}
			if err := setAffinity(tid, cpu); err != nil && err != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("pin thread %d to CPU %d: %w", tid, cpu, err)
			}
			pinned[tid] = true
			fresh++
		}
		if fresh == 0 {
			return nil
		}
	}
}
