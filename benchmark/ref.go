package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel is a fixed computation that shares no code with
// the repository: random reads and writes over a 16 MB table mixed
// with integer arithmetic. It runs just before every op, so it sees the
// host at the same speed as the op. The shared host's speed drifts by
// ±8% and more over minutes; an op's time divided by its kernel's time
// cancels most of that drift (see README.md). Of the kernels tried, a
// random walk over a table larger than L2 tracked the five workloads
// best; heap-shaped kernels tracked the randomized route worse.
//
// The table lives outside the Go heap, so it neither adds to
// retained_mb nor changes when the collector runs.
var refTable = mapRefTable(1 << 22)

func mapRefTable(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("benchmark: mapping the reference table: %v", err))
	}
	t := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	x := uint32(1)
	for i := range t {
		x = x*1664525 + 1013904223
		t[i] = x
	}
	return t
}

var refSink uint64

// refNominalMs is the kernel's median time on the 2-thread Xeon
// container the bounds were measured on. setup_s is scaled by it over
// the run's median kernel time: seconds at that container's speed.
const refNominalMs = 4.0

// refKernel runs the reference computation and returns its wall time
// in milliseconds (about 4 ms on a 2-thread Xeon container).
func refKernel() float64 {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	sum := uint64(0)
	n := uint64(len(refTable))
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		idx := (x >> 33) % n
		v := refTable[idx]
		sum += uint64(v) ^ (sum >> 7)
		if v&1 == 0 {
			refTable[idx] = v ^ uint32(sum)
		}
	}
	refSink += sum
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
