package sim

// Deferred-retime oracle tests. The dirty-node flush must reproduce the
// eager retime-on-every-churn implementation (retained as the oracle)
// exactly in everything observable about the fluid model: every flow's
// completion instant, its remaining-bytes trajectory, and the conservation
// of delivered bytes. Only event-heap sequence assignment — same-instant
// tie-breaking between a completion and an unrelated event — may differ,
// so completions are compared as a multiset ordered by (time, flow
// serial), not by firing order. A second test pins the harder property on
// a sharded heap: when a lane batch whose computes fan across a worker
// pool churns hundreds of nodes, the one flush after the batch leaves a
// full firing order (not just the multiset) that is byte-identical for any
// worker count.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// retimeOp is one scheduled action of a generated churn schedule.
type retimeOp struct {
	at     float64
	start  bool // start a new flow (vs cancel an old one)
	lane   bool // start from a lane batch's apply (start)
	from   int  // node index (start)
	to     int  // node index (start)
	bytes  float64
	target int // flow serial to cancel (cancel)
}

// retimeSchedule is a deterministic random workload over a fixed node set.
type retimeSchedule struct {
	upCaps, dnCaps []float64
	ops            []retimeOp
	checkpoints    []float64
	heapShards     int // SetHeapShards argument; 0 = single heap
}

// genRetimeSchedule derives a schedule from an RNG: a handful of nodes
// with messy capacities (a few uncapped), a stream of flow starts with
// messy sizes and times, and cancels targeting earlier serials. Times are
// irrational-ish floats so that the schedule itself never collides with a
// computed completion instant — the one regime where eager and deferred
// may legitimately order events differently.
func genRetimeSchedule(rng *rand.Rand, nodes, nOps int) retimeSchedule {
	if nodes < 2 {
		nodes = 2
	}
	s := retimeSchedule{
		upCaps: make([]float64, nodes),
		dnCaps: make([]float64, nodes),
	}
	for i := range s.upCaps {
		s.upCaps[i] = 100 + 900*rng.Float64()
		if rng.Intn(8) == 0 {
			s.upCaps[i] = 0 // uncapped
		}
		s.dnCaps[i] = 150 + 1200*rng.Float64()
		if rng.Intn(4) == 0 {
			s.dnCaps[i] = 0 // uncapped
		}
	}
	serials := 0
	for i := 0; i < nOps; i++ {
		at := rng.Float64() * 50 * math.Pi / 3
		if serials > 0 && rng.Intn(3) == 0 {
			s.ops = append(s.ops, retimeOp{at: at, target: rng.Intn(serials)})
			continue
		}
		from := rng.Intn(nodes)
		to := rng.Intn(nodes - 1)
		if to >= from {
			to++
		}
		s.ops = append(s.ops, retimeOp{
			at:    at,
			start: true,
			from:  from,
			to:    to,
			bytes: 1 + rng.Float64()*5000,
		})
		serials++
	}
	for i := 0; i < 4; i++ {
		s.checkpoints = append(s.checkpoints, (5+rng.Float64()*40)*math.E/2)
	}
	return s
}

// retimeTrace is everything a schedule run observes.
type retimeTrace struct {
	// completions, one per finished flow, sorted by (time, serial).
	completions []struct {
		serial int
		at     float64
	}
	// firing is the exact completion order the engine produced (serial
	// numbers in callback order) — only comparable between runs of the
	// SAME retime mode.
	firing []int
	// remaining[i] is the checkpoint-i sum of Remaining over live flows,
	// accumulated in serial order.
	remaining []float64
	delivered float64
	endNow    float64
	// peakFlush and peakLane are the widest flush and lane batch the run
	// saw (NetStats.PeakShardWidth, EngineStats.PeakLaneWidth).
	peakFlush, peakLane int
}

// runRetimeSchedule executes the schedule on a fresh engine/net pair.
func runRetimeSchedule(s retimeSchedule, eager bool) retimeTrace {
	e := NewEngine(1)
	if s.heapShards > 0 {
		e.SetHeapShards(s.heapShards)
	}
	n := NewNet(e)
	n.SetEagerRetime(eager)
	ids := make([]NodeID, len(s.upCaps))
	for i := range ids {
		ids[i] = n.AddNode(s.upCaps[i], s.dnCaps[i])
	}

	var tr retimeTrace
	type liveFlow struct {
		f    *Flow
		done bool
	}
	var flows []*liveFlow
	for _, op := range s.ops {
		op := op
		if op.start {
			serial := len(flows)
			lf := &liveFlow{}
			flows = append(flows, lf)
			start := func() {
				b := op.bytes
				lf.f = n.StartFlow(ids[op.from], ids[op.to], b, FlowFunc(func() {
					lf.done = true
					tr.delivered += b
					tr.firing = append(tr.firing, serial)
					tr.completions = append(tr.completions, struct {
						serial int
						at     float64
					}{serial, e.Now()})
				}))
			}
			if op.lane {
				e.AtLane(op.at, int64(op.from), func() func() { return start })
			} else {
				e.At(op.at, start)
			}
			continue
		}
		e.At(op.at, func() {
			if op.target < len(flows) {
				if lf := flows[op.target]; lf.f != nil && !lf.done {
					lf.done = true
					lf.f.Cancel()
				}
			}
		})
	}
	for _, cp := range s.checkpoints {
		e.At(cp, func() {
			sum := 0.0
			for _, lf := range flows {
				if lf.f != nil && !lf.done {
					sum += lf.f.Remaining(e.Now())
				}
			}
			tr.remaining = append(tr.remaining, sum)
		})
	}
	e.RunUntilIdle()
	tr.endNow = e.Now()
	tr.peakFlush = n.Stats().PeakShardWidth
	tr.peakLane = e.Stats().PeakLaneWidth
	sort.Slice(tr.completions, func(i, j int) bool {
		if tr.completions[i].at != tr.completions[j].at {
			return tr.completions[i].at < tr.completions[j].at
		}
		return tr.completions[i].serial < tr.completions[j].serial
	})
	return tr
}

// diffTraces compares the mode-independent observables bit-for-bit.
func diffTraces(a, b retimeTrace) error {
	if len(a.completions) != len(b.completions) {
		return fmt.Errorf("completion count %d vs %d", len(a.completions), len(b.completions))
	}
	for i := range a.completions {
		if a.completions[i] != b.completions[i] {
			return fmt.Errorf("completion %d: %+v vs %+v", i, a.completions[i], b.completions[i])
		}
	}
	if len(a.remaining) != len(b.remaining) {
		return fmt.Errorf("checkpoint count %d vs %d", len(a.remaining), len(b.remaining))
	}
	for i := range a.remaining {
		if a.remaining[i] != b.remaining[i] {
			return fmt.Errorf("checkpoint %d: remaining %v vs %v", i, a.remaining[i], b.remaining[i])
		}
	}
	if a.delivered != b.delivered {
		return fmt.Errorf("delivered %v vs %v", a.delivered, b.delivered)
	}
	if a.endNow != b.endNow {
		return fmt.Errorf("end time %v vs %v", a.endNow, b.endNow)
	}
	return nil
}

// TestRetimeDeferredMatchesEagerOracle drives random churn schedules
// through both retime modes and requires bit-identical physics.
func TestRetimeDeferredMatchesEagerOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := genRetimeSchedule(rng, 3+rng.Intn(10), 20+rng.Intn(120))
		eager := runRetimeSchedule(s, true)
		deferred := runRetimeSchedule(s, false)
		if err := diffTraces(eager, deferred); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRetimeDeferredMatchesEager is the fuzz-shaped variant: the input
// bytes pick the schedule seed and shape, so `go test` replays the seed
// corpus and `-fuzz` explores further.
func FuzzRetimeDeferredMatchesEager(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(60))
	f.Add(int64(42), uint8(2), uint8(200))
	f.Add(int64(-7), uint8(12), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, nodes, nOps uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := genRetimeSchedule(rng, 2+int(nodes%14), 1+int(nOps))
		eager := runRetimeSchedule(s, true)
		deferred := runRetimeSchedule(s, false)
		if err := diffTraces(eager, deferred); err != nil {
			t.Fatalf("deferred diverged from eager oracle: %v", err)
		}
	})
}

// TestRetimeFlushParallelMatchesSerialNet pins deferred retiming at its
// widest: one lane batch that churns hundreds of nodes at once, with its
// completion timers spread over 32 subheaps, must match the eager oracle
// bit for bit, and two runs must leave the same firing order — not just
// the same completion multiset.
func TestRetimeFlushParallelMatchesSerialNet(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := genRetimeSchedule(rng, 400, 40)
	s.heapShards = 32
	// One burst instant: start a flow on every node pair (i, i+1) from a
	// single lane batch so the flush after it sees ~400 dirty nodes.
	for i := 0; i+1 < len(s.upCaps); i++ {
		s.ops = append(s.ops, retimeOp{
			at:    10.125, // shared instant: all starts in one batch
			start: true,
			lane:  true,
			from:  i,
			to:    i + 1,
			bytes: 100 + float64(i),
		})
	}
	deferred := runRetimeSchedule(s, false)
	if deferred.peakLane < 300 || deferred.peakFlush < 300 {
		t.Fatalf("peak lane batch %d, peak flush width %d: the burst never got wide", deferred.peakLane, deferred.peakFlush)
	}
	if err := diffTraces(runRetimeSchedule(s, true), deferred); err != nil {
		t.Fatalf("deferred burst diverged from the eager oracle: %v", err)
	}
	again := runRetimeSchedule(s, false)
	if !reflect.DeepEqual(deferred.firing, again.firing) {
		t.Fatalf("firing order not reproducible:\n%v\n%v", deferred.firing, again.firing)
	}
}

// TestNetFlushStats checks the observability counters: a run with churn
// reports flushes, batches and a shard width, and the flow pool stays
// within its high-water cap.
func TestNetFlushStats(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(1000, 0)
	for i := 0; i < 500; i++ {
		dst := n.AddNode(0, 0)
		i := i
		e.At(float64(i)*0.01, func() { n.StartFlow(up, dst, 50, nil) })
	}
	e.RunUntilIdle()
	st := n.Stats()
	if st.DirtyFlushes == 0 || st.RetimeBatches < st.DirtyFlushes || st.PeakShardWidth < 2 {
		t.Fatalf("flush counters missing: %+v", st)
	}
	if st.PeakLiveFlows == 0 {
		t.Fatalf("live high-water not tracked: %+v", st)
	}
	if st.FlowPoolSize > st.FlowPoolCap {
		t.Fatalf("flow pool exceeds cap: %+v", st)
	}
}

// TestWideFlushZeroAlloc pins that a flush hundreds of nodes wide costs
// no allocation once warm, even on a sharded heap: re-timing live flows
// only re-sorts their existing timers.
func TestWideFlushZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	e.SetHeapShards(32)
	n := NewNet(e)
	const nodes = 200
	ids := make([]NodeID, nodes)
	for i := range ids {
		ids[i] = n.AddNode(1000+float64(i), 1500)
	}
	// A ring of flows: every node uploads to its successor, so every
	// dirty node has one live flow in each direction.
	for i := range ids {
		n.StartFlow(ids[i], ids[(i+1)%nodes], 1e12, nil)
	}
	cycle := func() {
		for _, id := range ids {
			n.markDirty(id)
		}
		n.Flush()
	}
	cycle()
	if got := n.Stats().PeakShardWidth; got != nodes {
		t.Fatalf("peak flush width %d, want %d", got, nodes)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("wide flush allocated %.1f times per cycle, want 0", allocs)
	}
}

// TestFlowPoolHighWaterCap floods the net with simultaneous flows, lets
// them all finish, and checks the free list was capped at the high-water
// fraction instead of retaining every flow ever pooled.
func TestFlowPoolHighWaterCap(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(0, 0) // uncapped: everything completes instantly
	const burst = 4000
	for i := 0; i < burst; i++ {
		dst := n.AddNode(0, 1e6)
		n.StartFlow(up, dst, 1000, nil)
	}
	e.RunUntilIdle()
	st := n.Stats()
	if st.PeakLiveFlows != burst {
		t.Fatalf("peak live = %d, want %d", st.PeakLiveFlows, burst)
	}
	want := burst/4 + 64
	if st.FlowPoolCap != want {
		t.Fatalf("FlowPoolCap = %d, want %d", st.FlowPoolCap, want)
	}
	if st.FlowPoolSize > want {
		t.Fatalf("pool retained %d flows past the cap %d", st.FlowPoolSize, want)
	}
}

// TestTimerPoolHighWaterCap is the engine-side twin: after a burst of
// scheduled-then-fired timers, the timer free list must be bounded by the
// heap's high-water fraction.
func TestTimerPoolHighWaterCap(t *testing.T) {
	e := NewEngine(1)
	const burst = 4000
	for i := 0; i < burst; i++ {
		e.At(float64(i)*1e-3, func() {})
	}
	e.RunUntilIdle()
	st := e.Stats()
	want := burst/4 + 64
	if st.TimerPoolCap != want {
		t.Fatalf("TimerPoolCap = %d, want %d (peak heap %d)", st.TimerPoolCap, want, burst)
	}
	if st.FreeListSize > want {
		t.Fatalf("timer pool retained %d past the cap %d", st.FreeListSize, want)
	}
}

// TestSetEagerRetimeGuard pins the mode-switch precondition.
func TestSetEagerRetimeGuard(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	a, b := n.AddNode(100, 0), n.AddNode(0, 0)
	n.StartFlow(a, b, 10, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SetEagerRetime with live flows did not panic")
		}
	}()
	n.SetEagerRetime(true)
}
