package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end metrics are measured in CPU time, not wall time. On a
// shared virtual machine the hypervisor deschedules the guest (steal
// time) for stretches of seconds, which moves wall-clock throughput by
// 20% between runs of the same code; the kernel's CPU-time clocks leave
// steal out.

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU is the calling OS thread's CPU time. Unlike getrusage with
// RUSAGE_THREAD, which lags by up to a scheduler tick, the clock brings
// the thread's runtime up to date first.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time of every thread of the process: the
// simulation, the fleet's workers, the garbage collector and the journal
// writer.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedSetup runs setup pinned to one OS thread and stores its CPU time
// in d.
func timedSetup(d *time.Duration, setup func() (*iteration, error)) (*iteration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	it, err := setup()
	*d = threadCPU() - t0
	return it, err
}

// isolate collects the previous iteration's garbage before the next one
// starts, outside every timer, so each iteration begins from the same
// heap and does not pay for its predecessor's collection.
func isolate() {
	runtime.GC()
}
