package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a node (peer) in the fluid network.
type NodeID int32

// flowList is an intrusive doubly-linked list of the flows in one
// direction of one node; dir selects which of the Flow's two link sets it
// threads. Insertion order is preserved and removal is O(1): the links
// live inside the Flow itself, so steady-state churn neither allocates
// nor shifts slices. Walk order (head to tail = insertion order) is
// exactly what the old slice implementation produced, which matters:
// retiming walks assign event-heap sequence numbers, and same-instant
// events fire in sequence order, so the walk order is part of the
// reproducibility contract — an order-changing removal (e.g. swap-remove)
// measurably perturbs fixed-seed runs.
type flowList struct {
	head, tail *Flow
	n          int
	dir        int // index into Flow.links: dirUp or dirDn
}

// Directions a flowList can thread through Flow.links.
const (
	dirUp = 0 // flows leaving a node (uploads)
	dirDn = 1 // flows entering a node (downloads)
)

// link is one direction's intrusive list hooks inside a Flow.
type link struct {
	prev, next *Flow
	attached   bool
}

// node carries a peer's access-link capacities, its active flow lists and
// its dirty-set membership epoch. The per-direction fair shares — the only
// node state the retime compute phase reads per flow — live in the
// separate dense Net.shares slice so a flush's inner loop walks a compact
// array instead of dragging the flow-list headers through the cache.
type node struct {
	upCap   float64 // bytes/second; math.Inf(1) = uncapped
	downCap float64
	upFlows flowList
	dnFlows flowList
	// dirtyAt == Net.epoch marks the node as a member of the current
	// dirty set (deferred mode only).
	dirtyAt uint64
}

// nodeShare is the hot per-node retiming state: the per-flow fair share of
// each direction's capacity (cap / live flow count), maintained
// incrementally on every attach/detach. A flow's rate is
// min(shares[from].up, shares[to].dn) — two loads and a min, no division,
// which is what the parallel retime flush spends its time on.
type nodeShare struct {
	up, dn float64
}

func (l *flowList) pushBack(f *Flow) {
	f.links[l.dir] = link{prev: l.tail, attached: true}
	if l.tail != nil {
		l.tail.links[l.dir].next = f
	} else {
		l.head = f
	}
	l.tail = f
	l.n++
}

func (l *flowList) remove(f *Flow) {
	lk := &f.links[l.dir]
	if !lk.attached {
		return
	}
	if lk.prev != nil {
		lk.prev.links[l.dir].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next != nil {
		lk.next.links[l.dir].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	*lk = link{}
	l.n--
}

// Flow is an in-progress fluid transfer between two nodes. A flow's rate is
// min(uploader share, downloader share), where a node's capacity is split
// equally among its active flows in each direction — the standard
// access-link fluid model for swarms without network bottlenecks (the
// paper's stated context: "the peers are well connected without severe
// network bottlenecks").
//
// Lifetime contract: when a flow completes or is cancelled the Net
// recycles it through a free list and a later StartFlow may reuse it for
// an unrelated transfer, so a *Flow handle is valid only until its
// completion callback runs or Cancel returns. The swarm layer complies by
// dropping its connection-slot references before cancelling.
type Flow struct {
	net        *Net
	from, to   NodeID
	remaining  float64
	rate       float64
	lastUpdate float64
	timer      *Timer
	onDone     FlowDone
	done       bool
	// links are the intrusive hooks in the endpoints' flow lists
	// (dirUp = uploader's list, dirDn = downloader's list).
	links [2]link
	// eta is the flush scratch: the compute phase stores the freshly
	// computed time-to-completion here and the serial apply phase turns it
	// into a timer (re)schedule.
	eta float64
	// flushedAt == Net.epoch once the current flush has (re)scheduled this
	// flow's timer — the apply-phase dedupe for flows whose two endpoints
	// are both dirty.
	flushedAt uint64
	// stagedSeq is the event sequence number the staging phase of a
	// sharded flush pre-assigned to this flow's completion timer; the
	// shard-parallel apply phase installs it verbatim.
	stagedSeq uint64
	// finishFn is the completion-timer callback, bound once per Flow
	// object and reused across pool recycles.
	finishFn func()
}

// From returns the uploading node.
func (f *Flow) From() NodeID { return f.from }

// To returns the downloading node.
func (f *Flow) To() NodeID { return f.to }

// Remaining returns the bytes left to transfer as of the last settlement.
func (f *Flow) Remaining(now float64) float64 {
	rem := f.remaining - f.rate*(now-f.lastUpdate)
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Rate returns the flow's current fluid rate in bytes/second. In the
// default deferred-retime mode the value is exact as of the last flush
// (the end of the previous event); same-instant churn lands at the next
// flush, before simulated time advances.
func (f *Flow) Rate() float64 { return f.rate }

// NetStats exposes the fluid model's deferred-retiming counters for the
// benchmark harness: how often the dirty set was flushed, how much work
// each flush carried, and the flow-pool occupancy bounds.
type NetStats struct {
	// DirtyFlushes counts flush passes that retimed at least one node
	// (clean per-event flushes are free and uncounted).
	DirtyFlushes uint64
	// RetimeBatches counts node shards processed across all flushes: each
	// dirty node is one batch whose flows are re-timed as a unit.
	// RetimeBatches/DirtyFlushes is the mean shard width.
	RetimeBatches uint64
	// PeakShardWidth is the widest dirty-node set a single flush fanned
	// across the retime workers — the per-event parallelism upper bound.
	PeakShardWidth int
	// PeakLiveFlows is the high-water mark of concurrently active flows.
	PeakLiveFlows int
	// FlowPoolCap is the high-water-derived bound on the flow free list:
	// recycled flows beyond it are dropped for the GC, so a flash-crowd
	// peak does not pin a peak-sized pool for the rest of a long run.
	FlowPoolCap int
	// FlowPoolSize is the current free-list occupancy.
	FlowPoolSize int
}

// Net is the fluid bandwidth model. All methods must be called from engine
// event context (single-threaded).
//
// Retiming is deferred by default: flow churn (StartFlow, Cancel, natural
// completion) only marks the two endpoints dirty, and the engine's
// post-event hook flushes the dirty set once per event — recomputing every
// affected flow's rate exactly once no matter how many times its endpoints
// were touched, then (re)scheduling completion timers serially in node-ID
// order so heap sequence assignment is deterministic for any worker count.
// SetEagerRetime(true) restores the PR 2 retime-on-every-churn behaviour;
// it exists as the property-test oracle.
type Net struct {
	eng    *Engine
	nodes  []node
	shares []nodeShare
	// free is the Flow recycling pool (see the Flow lifetime contract),
	// capped at a fraction of peakLive.
	free     []*Flow
	live     int
	peakLive int

	// Deferred-retime state: the dirty node set of the current epoch and
	// the flush counters behind Stats.
	eager         bool
	epoch         uint64
	dirty         []NodeID
	dirtyFlushes  uint64
	retimeBatches uint64
	peakShard     int

	// Sharded-apply scratch: stage[s] collects the flows whose completion
	// timers land in engine shard s (keyed by uploader), stagedShards the
	// shards with staged work this flush.
	stage        [][]*Flow
	stagedShards []int32
}

// laneRetimeMinShards is the dirty-set width below which a flush runs
// inline even when the engine has a lane worker pool: per-event flushes
// are typically two to four nodes wide and goroutine fan-out would cost
// more than the walk.
const laneRetimeMinShards = 64

// allocFlow returns a reset flow, reusing a recycled one when available.
func (n *Net) allocFlow() *Flow {
	if k := len(n.free); k > 0 {
		f := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return f
	}
	f := &Flow{net: n}
	f.finishFn = func() { n.finish(f) }
	return f
}

// flowPoolCap bounds the free list at a quarter of the live-flow
// high-water mark (plus a small floor so tiny runs still pool).
func (n *Net) flowPoolCap() int { return n.peakLive/4 + 64 }

// recycleFlow returns a detached, done flow to the pool, or drops it for
// the GC once the pool is at its high-water cap.
func (n *Net) recycleFlow(f *Flow) {
	f.onDone = nil
	if len(n.free) >= n.flowPoolCap() {
		return
	}
	n.free = append(n.free, f)
}

// NewNet returns an empty network bound to the engine and registers its
// deferred-retime flush as the engine's post-event hook.
func NewNet(eng *Engine) *Net {
	n := &Net{eng: eng, epoch: 1}
	eng.SetPostEventHook(n.Flush)
	return n
}

// SetEagerRetime toggles the retained eager retiming path: every churn
// immediately re-times all flows at both endpoints, exactly as before the
// deferred flush existed. It is the reference oracle for the
// deferred-mode property and fuzz tests, not a production mode. Toggling
// with flows in flight is a programming error (pending dirty marks would
// be stranded), so it panics unless the network is idle.
func (n *Net) SetEagerRetime(eager bool) {
	if n.live != 0 || len(n.dirty) != 0 {
		panic("sim: SetEagerRetime with active flows")
	}
	n.eager = eager
}

// Stats returns the deferred-retiming and pool counters.
func (n *Net) Stats() NetStats {
	return NetStats{
		DirtyFlushes:   n.dirtyFlushes,
		RetimeBatches:  n.retimeBatches,
		PeakShardWidth: n.peakShard,
		PeakLiveFlows:  n.peakLive,
		FlowPoolCap:    n.flowPoolCap(),
		FlowPoolSize:   len(n.free),
	}
}

// AddNode registers a node with the given up/down capacities in
// bytes/second; non-positive values mean uncapped.
func (n *Net) AddNode(upCap, downCap float64) NodeID {
	if upCap <= 0 {
		upCap = math.Inf(1)
	}
	if downCap <= 0 {
		downCap = math.Inf(1)
	}
	n.nodes = append(n.nodes, node{
		upCap:   upCap,
		downCap: downCap,
		upFlows: flowList{dir: dirUp},
		dnFlows: flowList{dir: dirDn},
	})
	n.shares = append(n.shares, nodeShare{})
	return NodeID(len(n.nodes) - 1)
}

// UploadCapacity returns the uploader-side capacity of id.
func (n *Net) UploadCapacity(id NodeID) float64 { return n.nodes[id].upCap }

// ActiveUploads returns the number of flows currently leaving id.
func (n *Net) ActiveUploads(id NodeID) int { return n.nodes[id].upFlows.n }

// ActiveDownloads returns the number of flows currently entering id.
func (n *Net) ActiveDownloads(id NodeID) int { return n.nodes[id].dnFlows.n }

// attach links f into both endpoints' lists and refreshes their shares.
func (n *Net) attach(f *Flow) {
	up := &n.nodes[f.from]
	dn := &n.nodes[f.to]
	up.upFlows.pushBack(f)
	dn.dnFlows.pushBack(f)
	n.shares[f.from].up = up.upCap / float64(up.upFlows.n)
	n.shares[f.to].dn = dn.downCap / float64(dn.dnFlows.n)
}

// detachFlow unlinks f from both endpoints' lists and refreshes their
// shares (a direction with zero flows keeps a stale share; it is never
// read, because rates are only computed for attached flows).
func (n *Net) detachFlow(f *Flow) {
	up := &n.nodes[f.from]
	dn := &n.nodes[f.to]
	up.upFlows.remove(f)
	dn.dnFlows.remove(f)
	if k := up.upFlows.n; k > 0 {
		n.shares[f.from].up = up.upCap / float64(k)
	}
	if k := dn.dnFlows.n; k > 0 {
		n.shares[f.to].dn = dn.downCap / float64(k)
	}
}

// markDirty adds id to the current epoch's dirty set (deferred mode).
func (n *Net) markDirty(id NodeID) {
	if n.nodes[id].dirtyAt == n.epoch {
		return
	}
	n.nodes[id].dirtyAt = n.epoch
	n.dirty = append(n.dirty, id)
}

// churn records flow-count change at both endpoints: eager mode re-times
// immediately (the oracle path), deferred mode marks dirty for the
// post-event flush.
func (n *Net) churn(f *Flow) {
	if n.eager {
		n.retimeNode(f.from)
		n.retimeNode(f.to)
		return
	}
	n.markDirty(f.from)
	n.markDirty(f.to)
}

// FlowDone receives a flow's completion. Taking an interface rather than
// a func lets a caller hand over a long-lived value it already holds (the
// swarm passes its *conn) instead of allocating a closure per transfer.
type FlowDone interface {
	FlowDone()
}

// FlowFunc adapts a plain function to FlowDone.
type FlowFunc func()

// FlowDone implements FlowDone by calling f.
func (f FlowFunc) FlowDone() { f() }

// StartFlow begins transferring bytes from one node to another, invoking
// onDone.FlowDone (in event context) when the last byte arrives. onDone
// may be nil. The Net holds onDone only while the flow is live.
func (n *Net) StartFlow(from, to NodeID, bytes float64, onDone FlowDone) *Flow {
	if bytes <= 0 {
		panic(fmt.Sprintf("sim: non-positive flow size %f", bytes))
	}
	if from == to {
		panic("sim: flow to self")
	}
	f := n.allocFlow()
	f.from = from
	f.to = to
	f.remaining = bytes
	f.rate = 0
	f.lastUpdate = n.eng.Now()
	f.onDone = onDone
	f.done = false
	n.live++
	if n.live > n.peakLive {
		n.peakLive = n.live
	}
	n.attach(f)
	n.churn(f)
	return f
}

// detach unlinks the flow from both endpoints and cancels its timer.
func (f *Flow) detach() {
	if f.timer != nil {
		f.timer.Cancel()
		f.timer = nil
	}
	f.net.detachFlow(f)
}

// Cancel aborts the flow; onDone is not invoked. Safe on completed flows.
func (f *Flow) Cancel() {
	if f.done {
		return
	}
	f.done = true
	f.detach()
	n := f.net
	n.live--
	n.churn(f)
	n.recycleFlow(f)
}

// settle charges elapsed time against remaining bytes.
func (f *Flow) settle(now float64) {
	if now > f.lastUpdate {
		f.remaining -= f.rate * (now - f.lastUpdate)
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.lastUpdate = now
	}
}

// Flush re-times every flow touching a dirty node and clears the dirty
// set. The engine invokes it as the post-event hook — once per plain
// event and once per same-instant lane batch — so it normally needs no
// explicit calls; tests and direct Net drivers may call it to settle
// timers before inspecting engine state. A clean flush is a nil check.
//
// The pass has two phases. The compute phase settles each affected flow
// at the current instant and recomputes its rate and ETA — pure per-flow
// writes with read-only shared state, fanned across the engine's lane
// worker pool sharded by NodeID for wide flushes (a flow whose endpoints
// are both dirty is owned by its uploader's shard, so no flow is touched
// by two workers). The apply phase then (re)schedules completion timers
// serially in ascending node-ID order, walking each node's flow lists in
// insertion order with epoch-based dedupe, so heap sequence assignment —
// and with it same-instant tie-breaking — is byte-identical for any
// worker count.
func (n *Net) Flush() {
	if len(n.dirty) == 0 {
		return
	}
	var t0 time.Time
	timing := n.eng.timing
	if timing != nil {
		t0 = time.Now()
	}
	now := n.eng.Now()
	slices.Sort(n.dirty)
	n.dirtyFlushes++
	n.retimeBatches += uint64(len(n.dirty))
	if len(n.dirty) > n.peakShard {
		n.peakShard = len(n.dirty)
	}

	if workers := min(n.eng.LaneParallelism(), len(n.dirty)); workers > 1 && len(n.dirty) >= laneRetimeMinShards {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(n.dirty) {
						return
					}
					n.computeShard(n.dirty[i], now)
				}
			}()
		}
		wg.Wait()
		if n.eng.sharded() {
			n.applyStaged(now)
		} else {
			for _, id := range n.dirty {
				nd := &n.nodes[id]
				for f := nd.upFlows.head; f != nil; f = f.links[dirUp].next {
					n.applyRetime(f, now)
				}
				for f := nd.dnFlows.head; f != nil; f = f.links[dirDn].next {
					n.applyRetime(f, now)
				}
			}
		}
	} else {
		// Serial fast path: fuse compute and apply into one walk. The
		// visit order and dedupe are exactly the two-phase apply's, and
		// computeFlow's result does not depend on when it runs within the
		// flush (shares are fixed, settle is idempotent at one instant),
		// so the schedule — and the run — is bit-identical to the
		// parallel path.
		for _, id := range n.dirty {
			nd := &n.nodes[id]
			for f := nd.upFlows.head; f != nil; f = f.links[dirUp].next {
				n.retimeFused(f, now)
			}
			for f := nd.dnFlows.head; f != nil; f = f.links[dirDn].next {
				n.retimeFused(f, now)
			}
		}
	}
	n.dirty = n.dirty[:0]
	n.epoch++
	if timing != nil {
		timing.RetimeFlush.Add(time.Since(t0).Nanoseconds())
	}
}

// retimeFused is the serial flush's one-pass compute+apply for a single
// flow, with the same epoch dedupe applyRetime uses. Completion timers are
// keyed by uploader, so on a sharded engine they allocate from — and push
// into — the uploader's subheap, exactly like the staged parallel apply.
func (n *Net) retimeFused(f *Flow, now float64) {
	if f.flushedAt == n.epoch {
		return
	}
	f.flushedAt = n.epoch
	n.computeFlow(f, now)
	if f.timer == nil {
		f.timer = n.eng.AfterKey(f.eta, int64(f.from), f.finishFn)
		return
	}
	n.eng.Reschedule(f.timer, now+f.eta)
}

// applyStaged is the sharded-engine apply phase, replacing the serial
// timer-(re)schedule walk with two phases that together are bit-identical
// to it for any worker count:
//
// Phase A (serial, cheap) walks the dirty nodes in exactly the serial
// apply's order — ascending node ID, upload list then download list,
// insertion order, epoch dedupe — and assigns each flow the sequence
// number the serial walk would have given its timer, staging the flow into
// the engine shard that owns its completion timer (keyed by uploader, the
// same owner rule the compute phase shards by).
//
// Phase B installs the staged (at, seq) pairs with heapPush/heapFix, one
// shard at a time — in parallel across the lane worker pool when the
// flush is wide, since shards share no heap, free list or counter state.
// Cross-shard pop order is already fixed by the pre-assigned global
// (when, seq) total order, so the merge tree simply rebuilds at the next
// peek.
func (n *Net) applyStaged(now float64) {
	e := n.eng
	if len(n.stage) != len(e.shards) {
		n.stage = make([][]*Flow, len(e.shards))
	}
	for _, id := range n.dirty {
		nd := &n.nodes[id]
		for f := nd.upFlows.head; f != nil; f = f.links[dirUp].next {
			n.stageRetime(f)
		}
		for f := nd.dnFlows.head; f != nil; f = f.links[dirDn].next {
			n.stageRetime(f)
		}
	}
	if workers := min(e.LaneParallelism(), len(n.stagedShards)); workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(n.stagedShards) {
						return
					}
					n.applyStagedShard(n.stagedShards[i], now)
				}
			}()
		}
		wg.Wait()
	} else {
		for _, s := range n.stagedShards {
			n.applyStagedShard(s, now)
		}
	}
	n.stagedShards = n.stagedShards[:0]
	e.treeDirty = true
}

// stageRetime assigns f's completion timer its sequence number and parks
// the flow on its owning shard's stage list (phase A).
func (n *Net) stageRetime(f *Flow) {
	if f.flushedAt == n.epoch {
		return
	}
	f.flushedAt = n.epoch
	e := n.eng
	e.seq++
	f.stagedSeq = e.seq
	s := e.shardFor(int64(f.from))
	if len(n.stage[s]) == 0 {
		n.stagedShards = append(n.stagedShards, s)
	}
	n.stage[s] = append(n.stage[s], f)
}

// applyStagedShard installs one shard's staged timers (phase B). Safe to
// run concurrently for different shards: every touched structure — the
// subheap, its free list, its high-water marks, the flows themselves — is
// owned by exactly this shard during the apply.
func (n *Net) applyStagedShard(s int32, now float64) {
	e := n.eng
	sh := &e.shards[s]
	for i, f := range n.stage[s] {
		at := now + f.eta
		if t := f.timer; t != nil {
			t.at = at
			t.seq = f.stagedSeq
			heapFix(sh.heap, t.index)
		} else {
			t := e.alloc(s)
			t.at = at
			t.seq = f.stagedSeq
			t.fn = f.finishFn
			heapPush(&sh.heap, t)
			if len(sh.heap) > sh.peak {
				sh.peak = len(sh.heap)
			}
			f.timer = t
		}
		n.stage[s][i] = nil
	}
	n.stage[s] = n.stage[s][:0]
}

// computeShard is one dirty node's compute phase: settle, new rate and
// ETA for every flow the shard owns. A download whose uploader is also
// dirty belongs to the uploader's shard (skip here), so each flow is
// written by exactly one worker.
func (n *Net) computeShard(id NodeID, now float64) {
	nd := &n.nodes[id]
	for f := nd.upFlows.head; f != nil; f = f.links[dirUp].next {
		n.computeFlow(f, now)
	}
	for f := nd.dnFlows.head; f != nil; f = f.links[dirDn].next {
		if n.nodes[f.from].dirtyAt == n.epoch {
			continue
		}
		n.computeFlow(f, now)
	}
}

// computeFlow settles f at now and refreshes its rate and ETA from the
// precomputed endpoint shares.
func (n *Net) computeFlow(f *Flow, now float64) {
	f.settle(now)
	f.rate = math.Min(n.shares[f.from].up, n.shares[f.to].dn)
	if math.IsInf(f.rate, 1) {
		f.eta = 0
		return
	}
	f.eta = f.remaining / f.rate
}

// applyRetime (re)schedules f's completion timer from the ETA the compute
// phase stored, once per flush (flows with two dirty endpoints appear in
// two walks).
func (n *Net) applyRetime(f *Flow, now float64) {
	if f.flushedAt == n.epoch {
		return
	}
	f.flushedAt = n.epoch
	if f.timer == nil {
		f.timer = n.eng.AfterKey(f.eta, int64(f.from), f.finishFn)
		return
	}
	n.eng.Reschedule(f.timer, now+f.eta)
}

// retimeNode is the eager oracle: recompute the rate and completion time
// of every flow touching id, immediately. Counts at the far endpoints are
// unchanged by definition, so only these flows need work.
func (n *Net) retimeNode(id NodeID) {
	nd := &n.nodes[id]
	for f := nd.upFlows.head; f != nil; f = f.links[dirUp].next {
		n.retimeFlow(f)
	}
	for f := nd.dnFlows.head; f != nil; f = f.links[dirDn].next {
		n.retimeFlow(f)
	}
}

// retimeFlow refreshes one flow's rate and re-sorts its completion timer
// in place (Engine.Reschedule), so steady-state rate churn neither
// allocates nor leaves cancelled entries in the event heap.
func (n *Net) retimeFlow(f *Flow) {
	now := n.eng.Now()
	n.computeFlow(f, now)
	if f.timer == nil {
		f.timer = n.eng.AfterKey(f.eta, int64(f.from), f.finishFn)
		return
	}
	n.eng.Reschedule(f.timer, now+f.eta)
}

func (n *Net) finish(f *Flow) {
	if f.done {
		return
	}
	f.done = true
	f.remaining = 0
	// The completion timer just fired; drop the handle (the engine recycles
	// it) and unlink from both endpoints.
	f.timer = nil
	f.detach()
	n.live--
	n.churn(f)
	if f.onDone != nil {
		f.onDone.FlowDone()
	}
	n.recycleFlow(f)
}
