package sim

import (
	"fmt"
	"math"
	"slices"
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
// node state a retime reads per flow — live in the separate dense
// Net.shares slice so a flush's inner loop walks a compact array instead
// of dragging the flow-list headers through the cache.
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
// which is what a retime flush spends its time on.
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
	// flushedAt == Net.epoch once the current flush has (re)scheduled this
	// flow's timer — the dedupe for flows whose two endpoints are both
	// dirty.
	flushedAt uint64
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
	// float64(...) rounds the product, so no port fuses it into a
	// multiply-add (scripts/fused_float.sh); settle does the same.
	rem := f.remaining - float64(f.rate*(now-f.lastUpdate))
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
	// RetimeBatches counts dirty nodes processed across all flushes: each
	// dirty node is one batch whose flows are re-timed as a unit.
	// RetimeBatches/DirtyFlushes is the mean flush width.
	RetimeBatches uint64
	// PeakShardWidth is the widest dirty-node set a single flush re-timed.
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
// affected flow's rate and (re)scheduling its completion timer exactly once
// no matter how many times its endpoints were touched, in ascending node-ID
// order so heap sequence assignment is deterministic.
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
}

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
		f.remaining -= float64(f.rate * (now - f.lastUpdate))
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.lastUpdate = now
	}
}

// Flush re-times every flow touching a dirty node and clears the dirty
// set. The engine invokes it as the post-event hook — once per event — so
// it normally needs no explicit calls; tests and code that use a Net
// directly may call it to settle timers before inspecting engine state. A
// clean flush is a nil check.
//
// The walk visits the dirty nodes in ascending node ID, each node's upload
// list then its download list, in insertion order, and re-times each flow
// once (a flow whose endpoints are both dirty is seen twice; the epoch
// dedupe skips the second visit). That order fixes the heap sequence
// numbers the timers get, and with them same-instant tie-breaking.
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
	for _, id := range n.dirty {
		nd := &n.nodes[id]
		for f := nd.upFlows.head; f != nil; f = f.links[dirUp].next {
			n.retimeOnce(f, now)
		}
		for f := nd.dnFlows.head; f != nil; f = f.links[dirDn].next {
			n.retimeOnce(f, now)
		}
	}
	n.dirty = n.dirty[:0]
	n.epoch++
	if timing != nil {
		timing.RetimeFlush.Add(time.Since(t0).Nanoseconds())
	}
}

// retimeOnce re-times f unless this flush already has.
func (n *Net) retimeOnce(f *Flow, now float64) {
	if f.flushedAt == n.epoch {
		return
	}
	f.flushedAt = n.epoch
	n.retimeFlow(f, now)
}

// retimeNode is the eager oracle: recompute the rate and completion time
// of every flow touching id, immediately. Counts at the far endpoints are
// unchanged by definition, so only these flows need work.
func (n *Net) retimeNode(id NodeID) {
	now := n.eng.Now()
	nd := &n.nodes[id]
	for f := nd.upFlows.head; f != nil; f = f.links[dirUp].next {
		n.retimeFlow(f, now)
	}
	for f := nd.dnFlows.head; f != nil; f = f.links[dirDn].next {
		n.retimeFlow(f, now)
	}
}

// retimeFlow settles f at now, refreshes its rate from the endpoint
// shares and re-sorts its completion timer in place (Engine.Reschedule),
// so steady-state rate churn neither allocates nor leaves cancelled
// entries in the event heap.
func (n *Net) retimeFlow(f *Flow, now float64) {
	f.settle(now)
	f.rate = math.Min(n.shares[f.from].up, n.shares[f.to].dn)
	eta := 0.0
	if !math.IsInf(f.rate, 1) {
		eta = f.remaining / f.rate
	}
	if f.timer == nil {
		f.timer = n.eng.After(eta, f.finishFn)
		return
	}
	n.eng.Reschedule(f.timer, now+eta)
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
