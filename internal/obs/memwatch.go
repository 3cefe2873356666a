package obs

// Memory-watermark sampler for long-running consumers (cmd/experiments
// suites). It records the maximum live HeapAlloc a periodic sampler
// observed — a lower bound that is accurate for runs much longer than the
// sampling period.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMemInterval is the default sampling period: coarse enough to be
// invisible in profiles, fine enough to catch the peak of any phase
// lasting a few hundred milliseconds.
const DefaultMemInterval = 50 * time.Millisecond

// MemWatermark is a running heap-watermark sampler. Create with
// StartMemWatermark, read PeakHeapBytes at any time, Stop when done.
type MemWatermark struct {
	peak     atomic.Uint64
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartMemWatermark collects garbage once (so the watermark reflects this
// measurement window, not a prior phase's uncollected heap) and starts
// sampling HeapAlloc every interval (0 means DefaultMemInterval). When
// reg is non-nil the sampler also publishes the live and peak values as
// process_heap_alloc_bytes / process_heap_peak_bytes gauges.
func StartMemWatermark(interval time.Duration, reg *Registry) *MemWatermark {
	if interval <= 0 {
		interval = DefaultMemInterval
	}
	runtime.GC()
	w := &MemWatermark{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	live := reg.Gauge("process_heap_alloc_bytes")
	peakG := reg.Gauge("process_heap_peak_bytes")
	go func() {
		defer close(w.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > w.peak.Load() {
					w.peak.Store(ms.HeapAlloc)
				}
				live.Set(float64(ms.HeapAlloc))
				peakG.Set(float64(w.peak.Load()))
			}
		}
	}()
	return w
}

// Stop halts the sampler and waits for its final tick to drain.
// Idempotent; safe from multiple goroutines.
func (w *MemWatermark) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// PeakHeapBytes returns the highest HeapAlloc observed so far. Valid
// both mid-run and after Stop.
func (w *MemWatermark) PeakHeapBytes() uint64 {
	if w == nil {
		return 0
	}
	return w.peak.Load()
}
