package obs

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentAdds(t *testing.T) {
	c := &Counter{}
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("Value = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeSetAddMax(t *testing.T) {
	g := &Gauge{}
	g.Set(10)
	g.Add(2.5)
	g.Add(-5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("after Set/Add: %v, want 7.5", got)
	}
	g.Max(3) // below current: no-op
	if got := g.Value(); got != 7.5 {
		t.Fatalf("Max(3) lowered the gauge to %v", got)
	}
	g.Max(99)
	if got := g.Value(); got != 99 {
		t.Fatalf("Max(99) = %v, want 99", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	g := &Gauge{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("balanced adds left %v", got)
	}
}

func TestRegistryHandlesAndValues(t *testing.T) {
	r := NewRegistry()
	if c1, c2 := r.Counter("a_total"), r.Counter("a_total"); c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	r.Counter("a_total").Add(3)
	r.Gauge("g").Set(1.5)

	if v, ok := r.Value("a_total"); !ok || v != 3 {
		t.Fatalf("Value(a_total) = %v,%v", v, ok)
	}
	if v, ok := r.Value("g"); !ok || v != 1.5 {
		t.Fatalf("Value(g) = %v,%v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("Value(missing) reported ok")
	}
	vals := r.Values()
	if vals["a_total"] != 3 || vals["g"] != 1.5 || len(vals) != 2 {
		t.Fatalf("Values() = %v", vals)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	c.Add(5)
	c.Inc()
	g.Set(1)
	g.Add(1)
	g.Max(1)
	var pt *PhaseTimes
	_ = pt.Snapshot()
	var w *MemWatermark
	w.Stop()
	if c.Value() != 0 || g.Value() != 0 || w.PeakHeapBytes() != 0 {
		t.Fatal("nil handles accumulated state")
	}
	if r.Values() != nil {
		t.Fatal("nil registry Values() non-nil")
	}
	if _, ok := r.Value("x"); ok {
		t.Fatal("nil registry Value() reported ok")
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

// TestDisabledHooksZeroAlloc is the disabled-path contract: with
// observability off, every hook a hot path can hit is a nil-receiver
// no-op that allocates nothing. The enabled striped-counter path must be
// allocation-free too (its stack probe must not escape).
func TestDisabledHooksZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(1)
		g.Add(1)
		g.Max(1)
	}); n != 0 {
		t.Fatalf("disabled hooks allocate %.1f per run", n)
	}
	live := NewRegistry().Counter("x")
	if n := testing.AllocsPerRun(100, func() { live.Add(1) }); n != 0 {
		t.Fatalf("enabled counter Add allocates %.1f per run", n)
	}
}

func TestPhaseTimesSnapshot(t *testing.T) {
	pt := &PhaseTimes{}
	pt.LaneCompute.Add(10)
	pt.LaneApply.Add(20)
	pt.HeapMerge.Add(30)
	pt.RetimeFlush.Add(40)
	pt.HaveFlush.Add(50)
	s := pt.Snapshot()
	if s.LaneComputeNs != 10 || s.LaneApplyNs != 20 || s.HeapMergeNs != 30 ||
		s.RetimeFlushNs != 40 || s.HaveFlushNs != 50 {
		t.Fatalf("snapshot %+v", s)
	}
}

func TestSeriesName(t *testing.T) {
	got := SeriesName("faults_total", "kind", `dial"fail\n`)
	want := `faults_total{kind="dial\"fail\\n"}`
	if got != want {
		t.Fatalf("SeriesName = %s, want %s", got, want)
	}
	if fam := familyName(got); fam != "faults_total" {
		t.Fatalf("familyName = %s", fam)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("ann_total").Add(2)
	r.Counter(SeriesName("faults_total", "kind", "reset")).Add(1)
	r.Counter(SeriesName("faults_total", "kind", "stall")).Add(4)
	r.Gauge("peers").Set(7)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ann_total counter\nann_total 2\n",
		"# TYPE faults_total counter\n",
		`faults_total{kind="reset"} 1`,
		`faults_total{kind="stall"} 4`,
		"# TYPE peers gauge\npeers 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One # TYPE line per family, even with multiple labeled series.
	if n := strings.Count(out, "# TYPE faults_total"); n != 1 {
		t.Errorf("faults_total TYPE line emitted %d times", n)
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Active() != nil {
		t.Fatal("default registry unexpectedly set at test start")
	}
	r := NewRegistry()
	SetDefault(r)
	defer SetDefault(nil)
	if Active() != r {
		t.Fatal("Active() did not return the installed registry")
	}
	SetDefault(nil)
	if Active() != nil {
		t.Fatal("SetDefault(nil) did not clear the registry")
	}
}

func TestMemWatermark(t *testing.T) {
	r := NewRegistry()
	w := StartMemWatermark(time.Millisecond, r)
	// Hold a few MB live across several sampling periods.
	buf := make([]byte, 8<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	time.Sleep(20 * time.Millisecond)
	runtime.KeepAlive(buf) // the backing array is otherwise dead (and collectable) after the loop
	w.Stop()
	w.Stop() // idempotent
	if got := w.PeakHeapBytes(); got < uint64(len(buf)) {
		t.Fatalf("peak heap %d below the %d bytes held live", got, len(buf))
	}
	if v, ok := r.Value("process_heap_peak_bytes"); !ok || v < float64(len(buf)) {
		t.Fatalf("published peak gauge = %v,%v", v, ok)
	}
}

func BenchmarkDisabledCounterAdd(b *testing.B) {
	var r *Registry
	c := r.Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledCounterAddParallel(b *testing.B) {
	c := NewRegistry().Counter("x")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}
