package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// heapAllocBytes is the cumulative count of heap bytes allocated by the
// process, the counter behind runtime.MemStats.TotalAlloc. It is read
// through runtime/metrics, which does not stop the world, so the traced
// run can sample it around every layer call.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcSnapshot holds the cumulative garbage-collector figures that the
// gc.* metrics difference over a round.
type gcSnapshot struct {
	cycles      uint32
	pause       time.Duration
	gcCPU, allC float64
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSnapshot{
		cycles: ms.NumGC,
		pause:  time.Duration(ms.PauseTotalNs),
		gcCPU:  s[0].Value.Float64(),
		allC:   s[1].Value.Float64(),
	}
}

// gcDelta is the garbage-collector work between two snapshots.
type gcDelta struct {
	cycles      int
	pauseMS     float64
	cpuFraction float64
}

func (a gcSnapshot) to(b gcSnapshot) gcDelta {
	d := gcDelta{
		cycles:  int(b.cycles - a.cycles),
		pauseMS: float64(b.pause-a.pause) / float64(time.Millisecond),
	}
	if all := b.allC - a.allC; all > 0 {
		d.cpuFraction = (b.gcCPU - a.gcCPU) / all
	}
	return d
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
