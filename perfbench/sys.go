package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime counters read at span and phase boundaries.
const (
	metricAllocs   = "/gc/heap/allocs:objects"
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU = "/cpu/classes/total:cpu-seconds"
	metricIdleCPU  = "/cpu/classes/idle:cpu-seconds"
)

// gcCPU snapshots the runtime's estimates of GC CPU time and of busy
// (not idle) CPU time, in seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{{Name: metricGCCPU}, {Name: metricTotalCPU}, {Name: metricIdleCPU}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// allocCounter reads the cumulative heap allocation count. It reuses
// its sample slice, so a read allocates nothing.
type allocCounter struct {
	s []metrics.Sample
}

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: metricAllocs}}}
}

func (c *allocCounter) read() uint64 {
	metrics.Read(c.s)
	return c.s[0].Value.Uint64()
}
