package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// laneTrace runs one scripted lane scenario and returns the observable
// event log: "a<key>" for an apply, "p<label>" for a plain event.
func laneTrace(t *testing.T) []string {
	t.Helper()
	e := NewEngine(1)
	var (
		log     []string
		applies []string
	)
	lane := func(at float64, key int64) {
		e.AtLane(at, key, func() func() {
			// Compute phase: capture a value derived from its own key and
			// log it at apply time.
			v := key * key
			return func() {
				applies = append(applies, fmt.Sprintf("a%d=%d", key, v))
				log = append(log, fmt.Sprintf("a%d", key))
			}
		})
	}
	// Three lanes at t=10 scheduled out of key order, one plain event at
	// t=10 scheduled before any of them (lower seq) and one after.
	e.At(10, func() { log = append(log, "p-first") })
	lane(10, 3)
	lane(10, 1)
	lane(10, 2)
	e.At(10, func() { log = append(log, "p-last") })
	// A second instant with a single lane.
	lane(20, 7)
	e.RunUntilIdle()
	if want := []string{"a1=1", "a2=4", "a3=9", "a7=49"}; !reflect.DeepEqual(applies, want) {
		t.Fatalf("applies = %v, want %v", applies, want)
	}
	return log
}

func TestLaneBatchOrdering(t *testing.T) {
	// The plain event with the lower seq fires before the batch; the batch
	// runs all three applies in key order even though scheduling order was
	// 3,1,2; the trailing plain event fires after the batch.
	want := []string{"p-first", "a1", "a2", "a3", "p-last", "a7"}
	if got := laneTrace(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
}

func TestLaneStats(t *testing.T) {
	e := NewEngine(1)
	for k := int64(0); k < 5; k++ {
		e.AtLane(10, k, func() func() { return nil })
	}
	e.AtLane(20, 0, func() func() { return nil })
	e.RunUntilIdle()
	st := e.Stats()
	if st.PeakLaneWidth != 5 {
		t.Fatalf("PeakLaneWidth = %d, want 5", st.PeakLaneWidth)
	}
	if st.LaneBatches != 2 || st.LaneEvents != 6 {
		t.Fatalf("LaneBatches = %d, LaneEvents = %d, want 2, 6", st.LaneBatches, st.LaneEvents)
	}
}

func TestLaneCancelSkipsApply(t *testing.T) {
	e := NewEngine(1)
	var fired []int64
	mk := func(key int64) *Timer {
		return e.AtLane(5, key, func() func() {
			return func() { fired = append(fired, key) }
		})
	}
	t1 := mk(1)
	mk(2)
	t3 := mk(3)
	// Cancel one before the batch runs, and have an earlier apply cancel a
	// later batch member mid-batch.
	t1.Cancel()
	e.AtLane(5, 0, func() func() {
		return func() {
			fired = append(fired, 0)
			t3.Cancel()
		}
	})
	e.RunUntilIdle()
	if want := []int64{0, 2}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// TestLaneSerialParallelIdentical drives a randomized micro-simulation —
// lanes whose computes read a shared array and whose applies mutate it and
// re-arm — through the engine, and requires the final state and the
// engine RNG stream position to equal a two-phase reference loop: at each
// instant every compute reads the pre-batch state, then the applies run
// in key order.
func TestLaneSerialParallelIdentical(t *testing.T) {
	const lanes = 16
	instants := []float64{10, 20, 30, 40, 50}
	laneRNGs := func() []*rand.Rand {
		rngs := make([]*rand.Rand, lanes)
		for k := range rngs {
			rngs[k] = rand.New(rand.NewSource(int64(k) * 7))
		}
		return rngs
	}
	// compute is shared by both sides: it reads the whole array and the
	// lane's neighbour, and advances the lane's private RNG.
	compute := func(state []int64, rng *rand.Rand, key int) int64 {
		sum := int64(0)
		for _, v := range state {
			sum += v
		}
		return sum%97 + state[(key+1)%lanes]%13 + rng.Int63n(1000)
	}

	e := NewEngine(99)
	state := make([]int64, lanes)
	rngs := laneRNGs()
	var arm func(key int64, at float64)
	arm = func(key int64, at float64) {
		e.AtLane(at, key, func() func() {
			d := compute(state, rngs[key], int(key))
			return func() {
				state[key] += d + int64(e.RNG().Intn(10))
				if at < instants[len(instants)-1] {
					arm(key, at+10)
				}
			}
		})
	}
	// Arm out of key order: the batch must still run in key order.
	for k := lanes - 1; k >= 0; k-- {
		arm(int64(k), instants[0])
	}
	e.RunUntilIdle()

	ref := make([]int64, lanes)
	refRNGs := laneRNGs()
	engRNG := rand.New(rand.NewSource(99))
	deltas := make([]int64, lanes)
	for range instants {
		for k := range ref {
			deltas[k] = compute(ref, refRNGs[k], k)
		}
		for k := range ref {
			ref[k] += deltas[k] + int64(engRNG.Intn(10))
		}
	}
	if !reflect.DeepEqual(state, ref) {
		t.Fatalf("engine state %v != two-phase reference %v", state, ref)
	}
	if got, want := e.RNG().Int63(), engRNG.Int63(); got != want {
		t.Fatalf("engine RNG diverged from the reference: %d vs %d", got, want)
	}
}

// TestLaneComputeWorkerIndex pins the batch schedule of AtLane: every
// compute of a batch runs before its first apply, and both phases run in
// ascending (key, seq) order whatever order the events were scheduled in.
func TestLaneComputeWorkerIndex(t *testing.T) {
	const computes = 64
	type step struct {
		apply bool
		key   int64
		seq   int
	}
	e := NewEngine(1)
	var got, want []step
	// Two events share each key; the one scheduled first (lower seq) must
	// run first.
	for seq, i := range rand.New(rand.NewSource(5)).Perm(computes) {
		key := int64(i / 2)
		want = append(want, step{key: key, seq: seq})
		e.AtLane(10, key, func() func() {
			got = append(got, step{false, key, seq})
			return func() { got = append(got, step{true, key, seq}) }
		})
	}
	e.RunUntilIdle()
	sort.Slice(want, func(i, j int) bool {
		if want[i].key != want[j].key {
			return want[i].key < want[j].key
		}
		return want[i].seq < want[j].seq
	})
	for _, w := range want[:computes] {
		w.apply = true
		want = append(want, w)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule = %v\nwant       %v", got, want)
	}
	if st := e.Stats(); st.LaneBatches != 1 || st.PeakLaneWidth != computes {
		t.Fatalf("stats = %+v, want one batch of %d", st, computes)
	}
}

// TestLanePendingAccounting checks that lane timers participate in the
// pending/cancel bookkeeping like plain timers.
func TestLanePendingAccounting(t *testing.T) {
	e := NewEngine(1)
	timers := make([]*Timer, 0, 10)
	for k := int64(0); k < 10; k++ {
		timers = append(timers, e.AtLane(10, k, func() func() { return nil }))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	timers[4].Cancel()
	if e.Pending() != 9 {
		t.Fatalf("Pending after cancel = %d, want 9", e.Pending())
	}
	e.RunUntilIdle()
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
	// Recycled lane timers must come back clean for plain reuse.
	fired := 0
	e.After(1, func() { fired++ })
	e.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("plain event after lane recycling fired %d times", fired)
	}
}

// TestLaneBatchSplitsOnInterleavedPlainEvent pins the batching rule: a
// plain event with a seq between two same-instant lane events splits them
// into two batches (each still applied in key order).
func TestLaneBatchSplitsOnInterleavedPlainEvent(t *testing.T) {
	e := NewEngine(1)
	var log []string
	lane := func(key int64) {
		e.AtLane(10, key, func() func() {
			return func() { log = append(log, fmt.Sprintf("a%d", key)) }
		})
	}
	lane(5)
	lane(9)
	e.At(10, func() { log = append(log, "plain") })
	lane(2)
	lane(4)
	e.RunUntilIdle()
	want := []string{"a5", "a9", "plain", "a2", "a4"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	if st := e.Stats(); st.LaneBatches != 2 || st.PeakLaneWidth != 2 {
		t.Fatalf("stats = %+v, want 2 batches of width 2", st)
	}
}

// TestLaneApplyReentrantScheduling checks that an apply scheduling a lane
// at the *current* instant starts a fresh batch in the same engine step
// sequence rather than being lost.
func TestLaneApplyReentrantScheduling(t *testing.T) {
	e := NewEngine(1)
	var keys []int64
	e.AtLane(10, 1, func() func() {
		return func() {
			keys = append(keys, 1)
			e.AtLane(10, 2, func() func() {
				return func() { keys = append(keys, 2) }
			})
		}
	})
	e.RunUntilIdle()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if !reflect.DeepEqual(keys, []int64{1, 2}) {
		t.Fatalf("keys = %v", keys)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %f", e.Now())
	}
}
