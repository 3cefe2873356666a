// Package obs is the runtime observability layer: striped counters and
// float64 gauges with O(1) lock-free updates, a snapshot API, and
// Prometheus-text exposition (prom.go). It exists so long-running swarms —
// a full-size simulator suite, the live TCP lab, a real tracker under
// load — can narrate themselves while they run instead of only reporting
// after the fact.
//
// # Determinism contract
//
// The layer is observe-only. Metric updates never consume engine RNG,
// never schedule or reorder simulator events, and never feed wall-clock
// readings back into simulation state; with a registry installed, golden
// digests stay byte-identical (guarded by TestGoldenDigestsWithMetrics).
//
// # Disabled cost
//
// Every handle type is nil-receiver safe: a nil *Counter or *Gauge is a
// no-op, and a nil *Registry hands out nil handles. Hot
// paths therefore cache handles once at construction and pay a single nil
// check — zero allocations — when observability is off (the default for
// goldens and benchmarks; guarded by TestDisabledHooksZeroAlloc).
package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// numStripes is the per-counter stripe count. Eight cache-line-padded
// slots are enough to keep concurrent writers (the live lab's connection
// goroutines, a tracker's handlers) from bouncing one hot line between
// cores.
const numStripes = 8

// counterStripe pads each slot to a cache line so concurrent writers on
// different stripes do not falsely share.
type counterStripe struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing striped counter. The zero value
// is ready to use; a nil *Counter is a no-op.
type Counter struct {
	stripes [numStripes]counterStripe
}

// stripeIdx derives a stripe from the caller's stack address. Goroutine
// stacks live in distinct allocations, so concurrent writers spread
// across stripes without any per-goroutine state; the shift discards
// within-frame variation so one goroutine sticks to one stripe across
// nearby frames. The pointer never escapes (it is reduced to a uintptr
// immediately), keeping the path allocation-free.
func stripeIdx() int {
	var probe byte
	return int((uintptr(unsafe.Pointer(&probe)) >> 12) % numStripes)
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.stripes[stripeIdx()].v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes. Nil receivers read as zero.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous float64 value (peer counts, rates, bytes).
// The zero value is ready to use; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d (negative to decrement). No-op on nil.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max raises the gauge to v if v is larger (a high-watermark gauge).
// No-op on a nil receiver.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge. Nil receivers read as zero.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry owns a namespace of metrics. Handle lookup takes a mutex (do
// it once, at construction); the handles themselves are lock-free.
// A nil *Registry hands out nil (no-op) handles, so callers can wire
// unconditionally: `m := obs.Active().Counter("x")` is always safe.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
	}
}

// Counter returns the named counter, creating it on first use. The name
// may carry a label set rendered by SeriesName. Nil registries return a
// nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil
// registries return a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Value looks up a counter or gauge by exact series name.
func (r *Registry) Value(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	c, g := r.counters[name], r.gauges[name]
	r.mu.Unlock()
	if c != nil {
		return float64(c.Value()), true
	}
	if g != nil {
		return g.Value(), true
	}
	return 0, false
}

// Values snapshots every counter and gauge into a flat map, for JSONL
// time-series sinks.
func (r *Registry) Values() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// SeriesName renders name{key="value"}, escaping the label value per the
// Prometheus text format. Registries key series by this full string, so
// one metric family fans out into labeled series naturally:
//
//	reg.Counter(obs.SeriesName("swarm_faults_total", "kind", name)).Inc()
func SeriesName(name, key, value string) string {
	var b strings.Builder
	b.Grow(len(name) + len(key) + len(value) + 6)
	b.WriteString(name)
	b.WriteByte('{')
	b.WriteString(key)
	b.WriteString(`="`)
	for _, c := range value {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	b.WriteString(`"}`)
	return b.String()
}

// defaultReg is the process-wide registry consulted by Active. It is nil
// until SetDefault installs one, which keeps every instrumented layer off
// (nil handles) by default.
var defaultReg atomic.Pointer[Registry]

// SetDefault installs (or, with nil, removes) the process-wide default
// registry. Layers cache handles at construction, so install the registry
// before building the engine/swarm/client that should report into it.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Active returns the process-wide registry, or nil when observability is
// off. Nil flows through handle lookups as no-op handles.
func Active() *Registry { return defaultReg.Load() }
