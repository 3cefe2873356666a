// Package sim provides the deterministic discrete-event engine and the
// fluid bandwidth model on which the swarm simulator runs.
//
// Time is float64 seconds from the start of the experiment. Events firing
// at the same instant are executed in scheduling order (a strictly
// increasing sequence number breaks ties), so a run is a pure function of
// the RNG seed and the initial configuration.
package sim

import (
	"math/rand"

	"rarestfirst/internal/obs"
)

// Event is what a timer fires. A scheduler holds an Event rather than a
// func so a caller can hand over a long-lived value it already owns (a
// handle stored inside a swarm peer or a flow) and bind nothing per
// schedule; EventFunc adapts a plain function.
type Event interface {
	Fire()
}

// EventFunc adapts a plain function to Event. A func value is one
// pointer, so the conversion allocates nothing beyond the closure itself.
type EventFunc func()

// Fire implements Event by calling f.
func (f EventFunc) Fire() { f() }

// Timer is a handle to a scheduled event; Cancel prevents a pending event
// from firing.
//
// Lifetime contract: once a timer has fired (or has been popped cancelled),
// the engine recycles it through an internal free list and a later At/After
// call may reuse it for an unrelated event. A handle is therefore valid
// only until its event fires; calling Cancel on a stale handle is a bug
// (it would cancel whoever reused the slot). All in-repo holders guard
// with their own state: a Flow never touches its timer after done, and a
// peer's choke-round handle is overwritten each round.
//
// The Event a timer fires is held, not copied: whatever it points at must
// outlive the pending event. The swarm's per-peer events point into the
// Peer, and peers are never freed; a flow's completion event points into
// the Flow, and a flow cancels its timer before it is recycled.
//
// The heap index is an int32 and the two flags sit together at the end,
// so a Timer is 48 bytes (TestTimerRecordSize).
type Timer struct {
	at        float64
	seq       uint64
	ev        Event
	eng       *Engine
	index     int32 // heap index, -1 once popped
	cancelled bool
	pooled    bool // true while parked in the engine's free list
}

// Cancel stops the timer; it is safe to call on an already-fired or
// already-cancelled timer. The heap slot is reclaimed lazily: either when
// the cancelled entry reaches the top, or by compaction once cancelled
// entries outnumber live ones.
func (t *Timer) Cancel() {
	if t.cancelled {
		return
	}
	t.cancelled = true
	if t.index >= 0 && t.eng != nil {
		t.eng.dead++
		t.eng.maybeCompact()
	}
}

// heapEnt is one event-heap slot: the (at, seq) ordering key inlined next
// to the timer pointer, so sift comparisons read the slot they are already
// touching instead of chasing a cold *Timer — at 40k-timer occupancy the
// pointer-chasing comparator was one of the hottest lines in a huge-swarm
// profile. The key is a copy of the timer's fields; every path that moves
// a timer's (at, seq) goes through heapPush or heapFix, which (re)write it.
type heapEnt struct {
	at  float64
	seq uint64
	t   *Timer
}

type eventHeap []heapEnt

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].t.index = int32(i)
	h[j].t.index = int32(j)
}

// heapPush, heapPop, heapFix and heapInit are container/heap's algorithms
// specialized to eventHeap: same sift order (so the element arrangement is
// bit-identical to the interface-based version), no interface boxing of
// the 24-byte entries, and no dynamic dispatch per comparison.
func heapPush(h *eventHeap, t *Timer) {
	t.index = int32(len(*h))
	*h = append(*h, heapEnt{at: t.at, seq: t.seq, t: t})
	heapUp(*h, len(*h)-1)
}

func heapPop(h *eventHeap) *Timer {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	heapDown(old, 0, n)
	t := old[n].t
	old[n] = heapEnt{}
	t.index = -1
	*h = old[:n]
	return t
}

// heapFix re-sorts the entry at index i after its timer's (at, seq)
// changed; it re-reads the key from the timer, so callers just write the
// timer fields and call heapFix.
func heapFix(h eventHeap, i int) {
	h[i].at, h[i].seq = h[i].t.at, h[i].t.seq
	if !heapDown(h, i, len(h)) {
		heapUp(h, i)
	}
}

func heapInit(h eventHeap) {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		heapDown(h, i, n)
	}
}

func heapUp(h eventHeap, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func heapDown(h eventHeap, i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

// EngineStats exposes the scheduler's internal occupancy for the benchmark
// harness: how big the heap actually is versus how many of its entries are
// still live, plus how many timer allocations the free list saved.
type EngineStats struct {
	// HeapSize is the number of entries in the event heap, including
	// lazily-deleted (cancelled) ones.
	HeapSize int
	// Live is the number of pending events that will actually fire.
	Live int
	// Cancelled is the number of dead entries awaiting compaction.
	Cancelled int
	// FreeListSize is the number of recycled timers ready for reuse.
	FreeListSize int
	// TimerPoolCap is the high-water-derived bound on FreeListSize: popped
	// timers beyond it are left out of the list instead of pooled, so a
	// flash-crowd peak does not pin a peak-sized free list for the rest of
	// a long run.
	TimerPoolCap int
	// Reused counts scheduling calls served from the free list.
	Reused uint64
	// Compactions counts lazy-deletion sweeps.
	Compactions uint64
	// PeakLaneWidth, LaneBatches, LaneComputeNs, LaneApplyNs and
	// HaveFlushNs are always 0: every event fires on its own, and the
	// swarm reacts to a HAVE inline. PeakShardHeap, MergePops and MergeNs
	// are always 0 too: the event queue is one heap. All eight are kept
	// only because bench/ reads them.
	PeakLaneWidth int
	LaneBatches   uint64
	PeakShardHeap int
	MergePops     uint64
	LaneComputeNs uint64
	LaneApplyNs   uint64
	MergeNs       uint64
	HaveFlushNs   uint64
	// RetimeFlushNs is the wall-clock time Net.Flush took, populated only
	// when an obs.PhaseTimes bundle is attached via SetMetrics — zero
	// otherwise. Observe-only: it never feeds back into the simulation,
	// so runs with and without timing fire identical event sequences.
	RetimeFlushNs uint64
}

// Engine is a single-threaded discrete-event scheduler over one binary
// heap ordered by (at, seq).
type Engine struct {
	now float64
	seq uint64
	rng *rand.Rand

	heap eventHeap
	// dead counts cancelled entries still occupying heap slots (lazy
	// deletion).
	dead int
	// free is the timer recycling pool, capped at poolCap so a burst of
	// churn does not pin a burst-sized pool forever. slab is the unused
	// rest of the current timerBlock, from which alloc carves fresh ones.
	free        []*Timer
	slab        []Timer
	peak        int // heap-occupancy high-water mark
	reused      uint64
	compactions uint64

	// postEvent, when set, runs after every fired event and before the
	// next pop in Step/Run — the deferred-work flush point clients like
	// Net use to settle rate retiming exactly once per event.
	postEvent func()

	// Observability hooks (SetMetrics). Both nil by default; hot paths pay
	// one nil check when disabled. timing is shared with Net (retime
	// flush) and read by Stats; mEvents is a nil-receiver-safe obs
	// handle, so fire touches it unconditionally.
	timing  *obs.PhaseTimes
	mEvents *obs.Counter
}

// NewEngine returns an engine whose randomness derives entirely from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// Stats returns the scheduler's occupancy counters.
func (e *Engine) Stats() EngineStats {
	ph := e.timing.Snapshot() // nil-safe: zeros when no bundle attached
	return EngineStats{
		HeapSize:      len(e.heap),
		Live:          len(e.heap) - e.dead,
		Cancelled:     e.dead,
		FreeListSize:  len(e.free),
		TimerPoolCap:  e.poolCap(),
		Reused:        e.reused,
		Compactions:   e.compactions,
		RetimeFlushNs: ph.RetimeFlushNs,
	}
}

// SetHeapShards does nothing: the event queue is one heap. It is kept
// only because bench/ calls it.
func (e *Engine) SetHeapShards(int) {}

// SetPostEventHook installs fn to run after every fired event and before
// the next pop in Step and Run. It is the deferred-work flush point: Net
// registers its dirty-node retime flush here, so flow churn inside one
// event settles exactly once no matter how many flows the event touched.
// fn must not fire events but may schedule, reschedule and cancel timers
// freely. Only one hook is supported; installing a new one replaces the
// old (a client that needs more chains them in one closure, as the swarm's
// connection reclaim does).
func (e *Engine) SetPostEventHook(fn func()) { e.postEvent = fn }

// EngineMetrics bundles the observability hooks an engine can report
// into. Any field may be nil; obs handles are nil-receiver-safe, so a
// partial bundle is fine.
type EngineMetrics struct {
	// Phases accumulates the retime flush's wall-clock nanoseconds; the
	// same bundle is read by Net.Flush.
	Phases *obs.PhaseTimes
	// Events counts fired events.
	Events *obs.Counter
}

// SetMetrics attaches observability hooks. Observe-only by construction:
// the hooks read the wall clock and bump atomics but never touch engine
// RNG or event order, so attaching them cannot change a trajectory (the
// golden-digest tests run with metrics enabled to prove it). Call with
// the zero EngineMetrics to detach.
func (e *Engine) SetMetrics(m EngineMetrics) {
	e.timing = m.Phases
	e.mEvents = m.Events
}

// timerBlock is how many timers alloc carves from one allocation: 64
// 48-byte timers are 3 KiB, small enough that a Table I catalog swarm,
// which never needs more than a few blocks, wastes little of its last one.
const timerBlock = 64

// alloc returns a zeroed timer: a recycled one when the free list has
// any, otherwise the next one of the current timerBlock, allocating a new
// block when that one is used up. A timer never moves, so a *Timer stays
// valid for the engine's lifetime.
func (e *Engine) alloc() *Timer {
	if n := len(e.free); n > 0 {
		t := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		t.pooled = false
		e.reused++
		return t
	}
	if len(e.slab) == 0 {
		e.slab = new([timerBlock]Timer)[:]
	}
	t := &e.slab[0]
	e.slab = e.slab[1:]
	t.eng = e
	return t
}

// recycle returns a popped timer to the free list unless its event
// re-scheduled it back into the heap. Beyond the high-water cap the timer
// is left out of the list; it still drops its event, since its block
// lives on for as long as any timer carved from it does.
func (e *Engine) recycle(t *Timer) {
	if t.index != -1 {
		return
	}
	t.ev = nil
	if len(e.free) >= e.poolCap() {
		return
	}
	t.cancelled = false
	t.pooled = true
	e.free = append(e.free, t)
}

// poolCap bounds the timer free list at a quarter of the heap's
// high-water mark, plus a small floor so a tiny heap still pools. It
// bounds the list, not the timers' memory: a timer left out of the list
// is reclaimed with its whole timerBlock, once every timer carved from
// that block is unreachable.
func (e *Engine) poolCap() int { return e.peak/4 + 64 }

// push puts t into the heap and records the occupancy high-water mark
// that sizes the pool cap.
func (e *Engine) push(t *Timer) {
	heapPush(&e.heap, t)
	if len(e.heap) > e.peak {
		e.peak = len(e.heap)
	}
}

// schedule is the shared push path: clamp, next sequence number, push.
func (e *Engine) schedule(at float64) *Timer {
	if at < e.now {
		at = e.now
	}
	e.seq++
	t := e.alloc()
	t.at = at
	t.seq = e.seq
	e.push(t)
	return t
}

// peekTop returns the earliest pending entry (cancelled entries
// included), or nil when the heap is empty.
func (e *Engine) peekTop() *Timer {
	if len(e.heap) == 0 {
		return nil
	}
	return e.heap[0].t
}

// dropTop pops the heap's top, which the caller has seen is cancelled,
// and recycles it.
func (e *Engine) dropTop() {
	t := heapPop(&e.heap)
	e.dead--
	e.recycle(t)
}

// At schedules fn to run at absolute time t (clamped to now if in the
// past) and returns a cancellable handle.
func (e *Engine) At(t float64, fn func()) *Timer { return e.AtEvent(t, EventFunc(fn)) }

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Timer { return e.AfterEvent(d, EventFunc(fn)) }

// AtEvent schedules ev.Fire to run at absolute time t (clamped to now if
// in the past) and returns a cancellable handle. ev must outlive the
// pending event (see Timer).
func (e *Engine) AtEvent(t float64, ev Event) *Timer {
	timer := e.schedule(t)
	timer.ev = ev
	return timer
}

// AfterEvent schedules ev.Fire to run d seconds from now.
func (e *Engine) AfterEvent(d float64, ev Event) *Timer {
	if d < 0 {
		d = 0
	}
	return e.AtEvent(e.now+d, ev)
}

// AtKey is At; key is ignored. It is kept only because bench/ calls it.
func (e *Engine) AtKey(t float64, _ int64, fn func()) *Timer { return e.At(t, fn) }

// AfterKey is After; key is ignored. It is kept only because bench/ calls
// it.
func (e *Engine) AfterKey(d float64, _ int64, fn func()) *Timer { return e.After(d, fn) }

// Reschedule moves a pending timer to absolute time t (clamped to now if
// in the past) by re-sorting it in place — no cancel-and-push garbage. The
// timer is assigned a fresh sequence number, so its ordering against
// same-instant events is exactly as if it had been cancelled and a new
// timer pushed.
//
// Valid targets: a pending timer (cancelled-but-still-in-heap ones are
// revived), or the currently firing timer from inside its own callback
// (it re-enters the heap instead of the free list). A timer whose event
// has otherwise completed may already have been recycled for an unrelated
// event — rescheduling it would corrupt the free list, so that is a
// panic, as is a cancelled timer already swept out by compaction.
func (e *Engine) Reschedule(t *Timer, at float64) {
	if t.pooled {
		panic("sim: Reschedule on a recycled timer")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	t.at = at
	t.seq = e.seq
	if t.cancelled {
		t.cancelled = false
		if t.index >= 0 {
			e.dead--
		}
	}
	if t.index >= 0 {
		heapFix(e.heap, int(t.index))
		return
	}
	e.push(t)
}

// maybeCompact sweeps cancelled entries out of the heap once they occupy
// more than half of it, re-establishing the heap invariant in one O(n)
// pass. Pop order is unchanged: (at, seq) is a total order, so any valid
// heap arrangement of the same live set pops identically.
func (e *Engine) maybeCompact() {
	if e.dead <= len(e.heap)/2 || e.dead < 64 {
		return
	}
	live := e.heap[:0]
	for _, en := range e.heap {
		if en.t.cancelled {
			en.t.index = -1
			e.recycle(en.t)
			continue
		}
		live = append(live, en)
	}
	for i := len(live); i < len(e.heap); i++ {
		e.heap[i] = heapEnt{}
	}
	e.heap = live
	for i := range e.heap {
		e.heap[i].t.index = int32(i)
	}
	heapInit(e.heap)
	e.dead = 0
	e.compactions++
}

// fire runs one popped, non-cancelled event with the clock already
// advanced to t.at.
func (e *Engine) fire(t *Timer) {
	e.now = t.at
	t.ev.Fire()
	e.recycle(t)
	e.mEvents.Inc() // nil-safe no-op when observability is off
	if e.postEvent != nil {
		e.postEvent()
	}
}

// Step executes the next event. It reports false when the queue is empty. Deferred work queued outside
// event context (e.g. flows started before the first event) is flushed via
// the post-event hook before the pop.
func (e *Engine) Step() bool {
	if e.postEvent != nil {
		e.postEvent()
	}
	for {
		t := e.peekTop()
		if t == nil {
			return false
		}
		if t.cancelled {
			e.dropTop()
			continue
		}
		heapPop(&e.heap)
		e.fire(t)
		return true
	}
}

// Run executes events until the queue is empty or the next event is after
// `until`; the clock is finally advanced to `until` if it got that far.
func (e *Engine) Run(until float64) {
	if e.postEvent != nil {
		e.postEvent()
	}
	for {
		next := e.peekTop()
		if next == nil {
			break
		}
		if next.cancelled {
			e.dropTop()
			continue
		}
		if next.at > until {
			break
		}
		heapPop(&e.heap)
		e.fire(next)
	}
	if e.now < until {
		e.now = until
	}
}
