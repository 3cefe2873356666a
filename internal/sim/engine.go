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
	"sort"
	"time"

	"rarestfirst/internal/obs"
)

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
type Timer struct {
	at        float64
	seq       uint64
	fn        func()
	cancelled bool
	index     int  // heap index, -1 once popped
	pooled    bool // true while parked in a shard's free list
	eng       *Engine
	// shard is the subheap (and free list) the timer lives in: 0 is the
	// global shard, 1..n are the keyed shards of a sharded engine. A timer
	// never migrates between shards.
	shard int32

	// Lane events (AtLane) carry a compute half instead of fn: compute is
	// the read-only phase, the closure it returns is the mutation phase.
	// compute != nil marks the timer as a lane event.
	compute func() func()
	laneKey int64
}

// At returns the time the timer is scheduled to fire.
func (t *Timer) At() float64 { return t.at }

// Cancel stops the timer; it is safe to call on an already-fired or
// already-cancelled timer. The heap slot is reclaimed lazily: either when
// the cancelled entry reaches the top, or by compaction once cancelled
// entries outnumber live ones in its shard.
func (t *Timer) Cancel() {
	if t.cancelled {
		return
	}
	t.cancelled = true
	if t.index >= 0 && t.eng != nil {
		t.eng.shards[t.shard].dead++
		t.eng.maybeCompact(t.shard)
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
	h[i].t.index = i
	h[j].t.index = j
}

// heapPush, heapPop, heapFix and heapInit are container/heap's algorithms
// specialized to eventHeap: same sift order (so the element arrangement is
// bit-identical to the interface-based version), no interface boxing of
// the 24-byte entries, and no dynamic dispatch per comparison.
func heapPush(h *eventHeap, t *Timer) {
	t.index = len(*h)
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

// heapShard is one subheap of the (possibly sharded) event queue, with its
// own lazy-deletion count, timer recycling pool and occupancy high-water
// mark. The single-heap engine is the degenerate case of one shard.
type heapShard struct {
	heap eventHeap
	// dead counts cancelled entries still occupying slots (lazy deletion).
	dead int
	// free is the shard's timer recycling pool, capped at poolCap so a
	// burst of churn does not pin a burst-sized pool forever.
	free        []*Timer
	peak        int // heap-occupancy high-water mark
	reused      uint64
	compactions uint64
}

// poolCap bounds the shard's free list at a quarter of its own heap
// high-water mark (plus a small floor so tiny shards still pool) — the
// single-heap peak/4+64 rule, applied per shard.
func (sh *heapShard) poolCap() int { return sh.peak/4 + 64 }

// EngineStats exposes the scheduler's internal occupancy for the benchmark
// harness: how big the heap actually is versus how many of its entries are
// still live, plus how many timer allocations the free lists saved.
type EngineStats struct {
	// HeapSize is the number of entries across all event subheaps,
	// including lazily-deleted (cancelled) ones.
	HeapSize int
	// Live is the number of pending events that will actually fire.
	Live int
	// Cancelled is the number of dead entries awaiting compaction.
	Cancelled int
	// FreeListSize is the number of recycled timers ready for reuse.
	FreeListSize int
	// TimerPoolCap is the high-water-derived bound on FreeListSize (summed
	// across shards): popped timers beyond it are dropped for the GC
	// instead of pooled, so a flash-crowd peak does not pin a peak-sized
	// free list for the rest of a long run.
	TimerPoolCap int
	// Reused counts scheduling calls served from the free lists.
	Reused uint64
	// Compactions counts lazy-deletion sweeps across all shards.
	Compactions uint64
	// PeakLaneWidth is the largest batch of same-timestamp lane events
	// (AtLane) executed as one unit: how many computes of one instant ran
	// against the same pre-batch state.
	PeakLaneWidth int
	// LaneBatches / LaneEvents count executed lane batches and the lane
	// events they contained (LaneEvents/LaneBatches = mean batch width).
	LaneBatches uint64
	LaneEvents  uint64
	// Shards is the number of keyed subheaps when the event heap is
	// sharded (SetHeapShards); 0 for the default single-heap engine.
	Shards int
	// PeakShardHeap is the largest single-subheap occupancy high-water
	// mark across the keyed shards of a sharded engine (0 when unsharded).
	PeakShardHeap int
	// MergePops counts pops routed through the loser-tree head merge of a
	// sharded engine (0 when unsharded).
	MergePops uint64
	// Phase timing (wall-clock nanoseconds), populated only when an
	// obs.PhaseTimes bundle is attached via SetMetrics — zero otherwise.
	// Observe-only: these never feed back into the simulation, so runs
	// with and without timing fire identical event sequences.
	LaneComputeNs uint64
	LaneApplyNs   uint64
	MergeNs       uint64
	RetimeFlushNs uint64
	HaveFlushNs   uint64
}

// Engine is a single-threaded discrete-event scheduler.
//
// The event queue is one binary heap by default. SetHeapShards splits it
// into per-key subheaps (shard 0 holds keyless events) merged at pop time
// by a loser tree over the shard heads. Sharding is trajectory-preserving:
// sequence numbers are still assigned serially, (at, seq) stays a global
// total order, and the merge always pops its global minimum, so a sharded
// engine fires events in exactly the single-heap order — what sharding
// buys is per-shard timer free lists.
type Engine struct {
	now float64
	seq uint64
	rng *rand.Rand

	// shards[0] is the global (keyless) shard; 1..n are the keyed shards
	// of a sharded engine. keyMask = n-1 (n a power of two) routes keys.
	shards  []heapShard
	keyMask int64

	// Loser-tree merge state over shard heads (sharded engines only).
	// tree[0] holds the winning shard index, tree[1..treeP-1] the losers;
	// treeP is the leaf count (shards padded to a power of two, missing
	// leaves = -1 sentinels that lose every match). The tree is replayed
	// from the winner's leaf after each pop and rebuilt lazily (treeDirty)
	// after any other head movement — pushes landing at a shard head,
	// reschedules, compactions.
	tree      []int32
	treeWin   []int32 // rebuild scratch, len 2*treeP
	treeP     int
	treeDirty bool
	mergePops uint64

	// postEvent, when set, runs after every fired event (after a whole
	// batch, for batched lane events) and before the next pop in
	// Step/Run — the deferred-work flush point clients like Net use to
	// settle rate retiming exactly once per event.
	postEvent func()

	// Lane execution state: laneBatch/laneApply are per-batch scratch, and
	// the counters feed EngineStats.
	laneBatch   []*Timer
	laneApply   []func()
	peakLane    int
	laneBatches uint64
	laneEvents  uint64

	// Observability hooks (SetMetrics). All nil by default; hot paths pay
	// one nil check when disabled. timing is shared with Net (retime
	// flush) and read by Stats; mEvents/mPeakLane are nil-receiver-safe
	// obs handles, so fire touches them unconditionally.
	timing    *obs.PhaseTimes
	mEvents   *obs.Counter
	mPeakLane *obs.Gauge
}

// NewEngine returns an engine whose randomness derives entirely from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), shards: make([]heapShard, 1)}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// Pending returns the number of live scheduled events (cancelled timers
// awaiting lazy deletion are excluded).
func (e *Engine) Pending() int {
	n := 0
	for i := range e.shards {
		n += len(e.shards[i].heap) - e.shards[i].dead
	}
	return n
}

// Stats returns the scheduler's occupancy counters.
func (e *Engine) Stats() EngineStats {
	ph := e.timing.Snapshot() // nil-safe: zeros when no bundle attached
	st := EngineStats{
		PeakLaneWidth: e.peakLane,
		LaneBatches:   e.laneBatches,
		LaneEvents:    e.laneEvents,
		MergePops:     e.mergePops,
		LaneComputeNs: ph.LaneComputeNs,
		LaneApplyNs:   ph.LaneApplyNs,
		MergeNs:       ph.HeapMergeNs,
		RetimeFlushNs: ph.RetimeFlushNs,
		HaveFlushNs:   ph.HaveFlushNs,
	}
	for i := range e.shards {
		sh := &e.shards[i]
		st.HeapSize += len(sh.heap)
		st.Live += len(sh.heap) - sh.dead
		st.Cancelled += sh.dead
		st.FreeListSize += len(sh.free)
		st.TimerPoolCap += sh.poolCap()
		st.Reused += sh.reused
		st.Compactions += sh.compactions
		if i > 0 && sh.peak > st.PeakShardHeap {
			st.PeakShardHeap = sh.peak
		}
	}
	if len(e.shards) > 1 {
		st.Shards = len(e.shards) - 1
	} else {
		st.PeakShardHeap = 0
	}
	return st
}

// SetHeapShards splits the event queue into n keyed subheaps (n is rounded
// up to a power of two) plus the global shard for keyless events, or
// restores the single monolithic heap for n <= 0 — the oracle the
// determinism tests compare against. Keys route as 1 + (key & (n-1)), so
// any family of per-node keys that differ by a multiple of n (choke-lane
// keys, the re-announce lane offset) lands in the owner node's shard;
// negative keys and plain At/After go to the global shard.
//
// Sharding must be chosen before any events are scheduled; calling it with
// a non-empty queue panics.
func (e *Engine) SetHeapShards(n int) {
	for i := range e.shards {
		if len(e.shards[i].heap) != 0 {
			panic("sim: SetHeapShards with scheduled events")
		}
	}
	if n <= 0 {
		e.shards = make([]heapShard, 1)
		e.keyMask = 0
		e.tree, e.treeWin, e.treeP = nil, nil, 0
		e.treeDirty = false
		return
	}
	p := 1
	for p < n {
		p <<= 1
	}
	e.shards = make([]heapShard, p+1)
	e.keyMask = int64(p - 1)
	tp := 1
	for tp < len(e.shards) {
		tp <<= 1
	}
	e.treeP = tp
	e.tree = make([]int32, tp)
	e.treeWin = make([]int32, 2*tp)
	e.treeDirty = true
}

// HeapShards returns the keyed subheap count (0 = single monolithic heap).
func (e *Engine) HeapShards() int {
	if len(e.shards) <= 1 {
		return 0
	}
	return len(e.shards) - 1
}

// shardFor routes a scheduling key to its owning subheap.
func (e *Engine) shardFor(key int64) int32 {
	if len(e.shards) == 1 || key < 0 {
		return 0
	}
	return int32(1 + (key & e.keyMask))
}

// SetPostEventHook installs fn to run after every fired event (once per
// whole batch for batched lane events) and before the next pop in Step and
// Run. It is the deferred-work flush point: Net registers its dirty-node
// retime flush here, so flow churn inside one event settles exactly once
// no matter how many flows the event touched. fn must not fire events but
// may schedule, reschedule and cancel timers freely. Only one hook is
// supported; installing a new one replaces the old (a client that needs
// both chains them in one closure, as the swarm's batched-HAVE flush does).
func (e *Engine) SetPostEventHook(fn func()) { e.postEvent = fn }

// EngineMetrics bundles the observability hooks an engine can report
// into. Any field may be nil; obs handles are nil-receiver-safe, so a
// partial bundle is fine.
type EngineMetrics struct {
	// Phases accumulates per-phase wall-clock nanoseconds (lane compute
	// vs apply, shard-heap merge, retime flush, HAVE flush). The same
	// bundle is read by Net.Flush and may be shared with the swarm layer
	// for its HAVE-flush phase.
	Phases *obs.PhaseTimes
	// Events counts fired events (one per plain event or lane batch).
	Events *obs.Counter
	// PeakLane is a high-watermark gauge of lane batch width.
	PeakLane *obs.Gauge
}

// SetMetrics attaches observability hooks. Observe-only by construction:
// the hooks read the wall clock and bump atomics but never touch engine
// RNG or event order, so attaching them cannot change a trajectory (the
// golden-digest tests run with metrics enabled to prove it). Call with
// the zero EngineMetrics to detach.
func (e *Engine) SetMetrics(m EngineMetrics) {
	e.timing = m.Phases
	e.mEvents = m.Events
	e.mPeakLane = m.PeakLane
}

// headLess orders two shards by their current heads under (at, seq);
// empty shards and -1 sentinel leaves order last (lose every match).
func (e *Engine) headLess(a, b int32) bool {
	if a < 0 {
		return false
	}
	if b < 0 {
		return true
	}
	ha, hb := e.shards[a].heap, e.shards[b].heap
	if len(ha) == 0 {
		return false
	}
	if len(hb) == 0 {
		return true
	}
	if ha[0].at != hb[0].at {
		return ha[0].at < hb[0].at
	}
	return ha[0].seq < hb[0].seq
}

// rebuildTree replays the whole tournament bottom-up: one match per
// internal node, O(treeP) total. Runs lazily (treeDirty) so a burst of
// head-moving mutations inside one event costs one rebuild at the next
// peek, not one per mutation.
func (e *Engine) rebuildTree() {
	p := e.treeP
	win := e.treeWin
	for i := 0; i < p; i++ {
		if i < len(e.shards) {
			win[p+i] = int32(i)
		} else {
			win[p+i] = -1
		}
	}
	for v := p - 1; v >= 1; v-- {
		a, b := win[2*v], win[2*v+1]
		if e.headLess(b, a) {
			a, b = b, a
		}
		win[v] = a
		e.tree[v] = b
	}
	e.tree[0] = win[1]
	e.treeDirty = false
}

// replayWinner re-runs the winner shard's matches up the tree after its
// head was consumed — the classic loser-tree pop refill, O(log shards).
// Only valid for the current winner; any other head movement must set
// treeDirty instead.
func (e *Engine) replayWinner(w int32) {
	cur := w
	for v := (e.treeP + int(w)) >> 1; v >= 1; v >>= 1 {
		if e.headLess(e.tree[v], cur) {
			cur, e.tree[v] = e.tree[v], cur
		}
	}
	e.tree[0] = cur
}

// peekTop returns the globally earliest pending entry (cancelled entries
// included, exactly like a single heap's top), or nil when every shard is
// empty. On a sharded engine this settles the merge tree first.
func (e *Engine) peekTop() *Timer {
	if len(e.shards) == 1 {
		if len(e.shards[0].heap) == 0 {
			return nil
		}
		return e.shards[0].heap[0].t
	}
	if e.treeDirty {
		e.rebuildTree()
	}
	w := e.tree[0]
	if w < 0 || len(e.shards[w].heap) == 0 {
		return nil
	}
	return e.shards[w].heap[0].t
}

// popTop removes and returns the globally earliest entry. Callers must
// have established that one exists via peekTop (which also settles the
// merge tree); popTop then refills the tree with one winner replay.
func (e *Engine) popTop() *Timer {
	if len(e.shards) == 1 {
		return heapPop(&e.shards[0].heap)
	}
	var t0 time.Time
	if e.timing != nil {
		t0 = time.Now()
	}
	w := e.tree[0]
	t := heapPop(&e.shards[w].heap)
	e.mergePops++
	e.replayWinner(w)
	if e.timing != nil {
		e.timing.HeapMerge.Add(time.Since(t0).Nanoseconds())
	}
	return t
}

// notePush records shard heap growth for the pool cap's high-water mark
// and dirties the merge tree when the new entry became the shard head;
// call after every heapPush.
func (e *Engine) notePush(sh *heapShard, t *Timer) {
	if len(sh.heap) > sh.peak {
		sh.peak = len(sh.heap)
	}
	if len(e.shards) > 1 && !e.treeDirty && sh.heap[0].t == t {
		e.treeDirty = true
	}
}

// alloc returns a zeroed timer bound to shard s, reusing one of the
// shard's recycled timers when available.
func (e *Engine) alloc(s int32) *Timer {
	sh := &e.shards[s]
	if n := len(sh.free); n > 0 {
		t := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		t.pooled = false
		sh.reused++
		return t
	}
	return &Timer{eng: e, shard: s}
}

// recycle returns a popped timer to its shard's free list unless its fn
// re-scheduled it back into the heap; beyond the shard's high-water cap
// the timer is dropped for the GC instead.
func (e *Engine) recycle(t *Timer) {
	if t.index != -1 {
		return
	}
	sh := &e.shards[t.shard]
	if len(sh.free) >= sh.poolCap() {
		return
	}
	t.fn = nil
	t.compute = nil
	t.laneKey = 0
	t.cancelled = false
	t.pooled = true
	sh.free = append(sh.free, t)
}

// schedule is the shared push path: clamp, next sequence number, shard
// push, high-water bookkeeping.
func (e *Engine) schedule(s int32, at float64) *Timer {
	if at < e.now {
		at = e.now
	}
	e.seq++
	sh := &e.shards[s]
	t := e.alloc(s)
	t.at = at
	t.seq = e.seq
	heapPush(&sh.heap, t)
	e.notePush(sh, t)
	return t
}

// At schedules fn to run at absolute time t (clamped to now if in the
// past) and returns a cancellable handle. Plain events live in the global
// shard; use AtKey to route into a keyed shard.
func (e *Engine) At(t float64, fn func()) *Timer {
	timer := e.schedule(0, t)
	timer.fn = fn
	return timer
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtKey schedules fn at absolute time t in the subheap owning key — on a
// sharded engine, per-node keys keep per-node timer traffic (and its pool
// churn) out of the shared global shard. Identical to At on an unsharded
// engine, and identical pop order everywhere.
func (e *Engine) AtKey(t float64, key int64, fn func()) *Timer {
	timer := e.schedule(e.shardFor(key), t)
	timer.fn = fn
	return timer
}

// AfterKey schedules fn d seconds from now in the subheap owning key.
func (e *Engine) AfterKey(d float64, key int64, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.AtKey(e.now+d, key, fn)
}

// AtLane schedules a lane event at absolute time t (clamped to now if in
// the past). Lane events scheduled for the same instant that are adjacent
// in (time, seq) order — i.e. not interleaved with a plain event at the
// same timestamp — execute as one batch on the engine goroutine: every
// compute runs in ascending (key, seq) order, then the returned apply
// closures run in the same order. Because every compute of a batch runs
// before the batch's first apply, each compute sees the pre-batch state
// of anything the applies mutate. A compute must therefore leave state
// shared with other lane events alone (private state, e.g. a per-peer RNG
// or choker, is fair game, and so is scratch no later compute of the
// batch still needs); all shared-state mutation, engine RNG use and
// rescheduling belongs in the apply closure. A compute may return nil to
// skip its apply phase.
//
// On a sharded engine the event lives in the subheap owning key, so
// grid-aligned per-node lane timers spread across shards instead of
// funnelling through one heap.
func (e *Engine) AtLane(t float64, key int64, compute func() func()) *Timer {
	if compute == nil {
		panic("sim: AtLane with nil compute")
	}
	timer := e.schedule(e.shardFor(key), t)
	timer.compute = compute
	timer.laneKey = key
	return timer
}

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
	sh := &e.shards[t.shard]
	if t.cancelled {
		t.cancelled = false
		if t.index >= 0 {
			sh.dead--
		}
	}
	if t.index >= 0 {
		heapFix(sh.heap, t.index)
		if len(e.shards) > 1 {
			e.treeDirty = true
		}
		return
	}
	heapPush(&sh.heap, t)
	e.notePush(sh, t)
}

// maybeCompact sweeps cancelled entries out of shard s once they occupy
// more than half of it, re-establishing the heap invariant in one O(n)
// pass. Pop order is unchanged: (at, seq) is a total order, so any valid
// heap arrangement of the same live set pops identically.
func (e *Engine) maybeCompact(s int32) {
	sh := &e.shards[s]
	if sh.dead <= len(sh.heap)/2 || sh.dead < 64 {
		return
	}
	live := sh.heap[:0]
	for _, en := range sh.heap {
		if en.t.cancelled {
			en.t.index = -1
			e.recycle(en.t)
			continue
		}
		live = append(live, en)
	}
	for i := len(live); i < len(sh.heap); i++ {
		sh.heap[i] = heapEnt{}
	}
	sh.heap = live
	for i := range sh.heap {
		sh.heap[i].t.index = i
	}
	heapInit(sh.heap)
	sh.dead = 0
	sh.compactions++
	if len(e.shards) > 1 {
		e.treeDirty = true
	}
}

// runLaneBatch executes the lane batch starting at first, which has just
// been popped: it keeps popping lane events scheduled for the same instant
// (skipping cancelled entries of any kind) until the queue top is a plain
// event or a later time, runs every compute, then every apply, both in
// ascending (key, seq) order. Apply closures may schedule, reschedule and
// cancel freely — including cancelling a later member of the same batch,
// whose apply is then skipped.
func (e *Engine) runLaneBatch(first *Timer) {
	var t0 time.Time
	if e.timing != nil {
		t0 = time.Now()
	}
	batch := append(e.laneBatch[:0], first)
	for {
		top := e.peekTop()
		if top == nil || top.at != first.at {
			break
		}
		if top.cancelled {
			e.popTop()
			e.shards[top.shard].dead--
			e.recycle(top)
			continue
		}
		if top.compute == nil {
			break
		}
		e.popTop()
		batch = append(batch, top)
	}
	// Key order, not pop (seq) order, for both phases: applies must run in
	// key order whatever order their events were scheduled in.
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].laneKey != batch[j].laneKey {
			return batch[i].laneKey < batch[j].laneKey
		}
		return batch[i].seq < batch[j].seq
	})
	e.laneBatch = batch

	applies := e.laneApply
	if cap(applies) < len(batch) {
		applies = make([]func(), len(batch))
	} else {
		applies = applies[:len(batch)]
	}
	e.laneApply = applies
	for i, t := range batch {
		applies[i] = t.compute()
	}

	e.laneBatches++
	e.laneEvents += uint64(len(batch))
	if len(batch) > e.peakLane {
		e.peakLane = len(batch)
		e.mPeakLane.Max(float64(len(batch))) // nil-safe; only on a new high-water mark
	}
	if e.timing != nil {
		e.timing.LaneCompute.Add(time.Since(t0).Nanoseconds())
		t0 = time.Now()
	}
	for i, t := range batch {
		if fn := applies[i]; fn != nil && !t.cancelled {
			fn()
		}
		applies[i] = nil
		e.laneBatch[i] = nil
		e.recycle(t)
	}
	if e.timing != nil {
		e.timing.LaneApply.Add(time.Since(t0).Nanoseconds())
	}
}

// fire runs one popped, non-cancelled event — a lane batch seeded by t, or
// a plain callback — with the clock already advanced to t.at.
func (e *Engine) fire(t *Timer) {
	e.now = t.at
	if t.compute != nil {
		e.runLaneBatch(t)
	} else {
		fn := t.fn
		fn()
		e.recycle(t)
	}
	e.mEvents.Inc() // nil-safe no-op when observability is off
	if e.postEvent != nil {
		e.postEvent()
	}
}

// Step executes the next event (a whole batch, for batched lane events).
// It reports false when the queue is empty. Deferred work queued outside
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
		e.popTop()
		if t.cancelled {
			e.shards[t.shard].dead--
			e.recycle(t)
			continue
		}
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
			e.popTop()
			e.shards[next.shard].dead--
			e.recycle(next)
			continue
		}
		if next.at > until {
			break
		}
		e.popTop()
		e.fire(next)
	}
	if e.now < until {
		e.now = until
	}
}

// RunUntilIdle executes events until none remain.
func (e *Engine) RunUntilIdle() {
	for e.Step() {
	}
}
