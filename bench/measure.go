package main

// One timed iteration and the statistics over a run's iterations.

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rarestfirst/internal/obs"
)

// instance is one set-up of a workload: inputs generated, population
// built, warm-ups done. A run sets a workload up several times (setup_s
// is the median) and times iterations of the last instance.
type instance interface {
	// prepare readies one iteration; untimed.
	prepare() error
	// run is the timed region.
	run() error
	// finish checks the iteration's outputs (untimed) and reports the
	// operations attempted and failed and the units of work done.
	finish() (tally, error)
	close()
}

// tally counts one iteration's operations.
type tally struct {
	attempted, failed int
	ops               float64 // work units for ops_per_s
}

// sample is what one timed iteration measured.
type sample struct {
	wall, cpu  float64 // seconds
	mallocs    float64
	allocBytes float64
	peakHeap   float64 // bytes
	tally
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure times one iteration of inst. The heap-watermark sampler
// collects garbage as it starts, so every iteration begins from the
// same heap; that collection and the counter reads sit outside the
// timed region.
func measure(inst instance, heapEvery time.Duration) (sample, error) {
	if err := inst.prepare(); err != nil {
		return sample{}, err
	}
	var m0, m1 runtime.MemStats
	wm := obs.StartMemWatermark(heapEvery, nil)
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := inst.run()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	wm.Stop()
	if err != nil {
		return sample{}, err
	}
	peak := wm.PeakHeapBytes()
	if m1.HeapAlloc > peak { // iterations shorter than one sampling tick
		peak = m1.HeapAlloc
	}
	tl, err := inst.finish()
	return sample{
		wall:       wall,
		cpu:        c1 - c0,
		mallocs:    float64(m1.Mallocs - m0.Mallocs),
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		peakHeap:   float64(peak),
		tally:      tl,
	}, err
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 on empty
// input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
