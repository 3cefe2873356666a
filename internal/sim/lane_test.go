package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
)

// laneTrace runs one scripted lane scenario and returns the observable
// event log: "c<key>" for a compute, "a<key>" for an apply, "p<label>"
// for a plain event.
func laneTrace(t *testing.T, workers int) []string {
	t.Helper()
	e := NewEngine(1)
	e.SetLaneParallelism(workers)
	var (
		log     []string
		applies []string // applies record separately: computes may run on any goroutine, so they log via their apply
	)
	lane := func(at float64, key int64) {
		e.AtLane(at, key, func(int) func() {
			// Compute phase: read-only; capture a value derived from its
			// own key only and log at apply time (logging here from a pool
			// goroutine would race on the slice).
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
	for _, workers := range []int{1, 4} {
		if got := laneTrace(t, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: log = %v, want %v", workers, got, want)
		}
	}
}

func TestLaneStats(t *testing.T) {
	e := NewEngine(1)
	e.SetLaneParallelism(3)
	if e.LaneParallelism() != 3 {
		t.Fatalf("LaneParallelism = %d", e.LaneParallelism())
	}
	for k := int64(0); k < 5; k++ {
		e.AtLane(10, k, func(int) func() { return nil })
	}
	e.AtLane(20, 0, func(int) func() { return nil })
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
		return e.AtLane(5, key, func(int) func() {
			return func() { fired = append(fired, key) }
		})
	}
	t1 := mk(1)
	mk(2)
	t3 := mk(3)
	// Cancel one before the batch runs, and have an earlier apply cancel a
	// later batch member mid-batch.
	t1.Cancel()
	e.AtLane(5, 0, func(int) func() {
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
// re-arm — under serial and parallel lane execution, and requires the
// final state and the engine RNG stream position to be identical.
func TestLaneSerialParallelIdentical(t *testing.T) {
	run := func(workers int) ([]int64, int64) {
		e := NewEngine(99)
		e.SetLaneParallelism(workers)
		state := make([]int64, 16)
		rngs := make([]*rand.Rand, len(state))
		var arm func(key int64, at float64)
		arm = func(key int64, at float64) {
			e.AtLane(at, key, func(int) func() {
				// Read-only over shared state, private RNG per lane.
				sum := int64(0)
				for _, v := range state {
					sum += v
				}
				draw := rngs[key].Int63n(1000)
				return func() {
					state[key] += sum%97 + draw + int64(e.RNG().Intn(10))
					if at < 50 {
						arm(key, at+10)
					}
				}
			})
		}
		for k := range state {
			rngs[k] = rand.New(rand.NewSource(int64(k) * 7))
			arm(int64(k), 10)
		}
		e.RunUntilIdle()
		return state, int64(e.RNG().Int63())
	}
	s1, r1 := run(1)
	s8, r8 := run(8)
	if !reflect.DeepEqual(s1, s8) {
		t.Fatalf("serial state %v != parallel state %v", s1, s8)
	}
	if r1 != r8 {
		t.Fatalf("engine RNG diverged: %d vs %d", r1, r8)
	}
}

// TestLaneComputeWorkerIndex pins the worker-index contract of AtLane:
// every compute sees 0 <= worker < LaneParallelism(), and no two computes
// running at the same time share an index (each claims its worker's slot
// on entry and must find it free). Serial mode always passes 0.
func TestLaneComputeWorkerIndex(t *testing.T) {
	const computes = 64
	for _, workers := range []int{1, 4} {
		e := NewEngine(1)
		e.SetLaneParallelism(workers)
		busy := make([]atomic.Bool, workers)
		var outOfRange, shared, ran atomic.Int64
		for k := int64(0); k < computes; k++ {
			e.AtLane(10, k, func(w int) func() {
				ran.Add(1)
				if w < 0 || w >= workers {
					outOfRange.Add(1)
					return nil
				}
				if !busy[w].CompareAndSwap(false, true) {
					shared.Add(1)
					return nil
				}
				runtime.Gosched() // widen the window another compute could overlap
				busy[w].Store(false)
				return nil
			})
		}
		e.RunUntilIdle()
		if ran.Load() != computes {
			t.Fatalf("workers=%d: %d computes ran, want %d", workers, ran.Load(), computes)
		}
		if n := outOfRange.Load(); n != 0 {
			t.Fatalf("workers=%d: %d computes saw an index outside [0,%d)", workers, n, workers)
		}
		if n := shared.Load(); n != 0 {
			t.Fatalf("workers=%d: %d computes found their worker index already taken", workers, n)
		}
		if st := e.Stats(); st.LaneBatches != 1 || st.PeakLaneWidth != computes {
			t.Fatalf("workers=%d: stats = %+v, want one batch of %d", workers, st, computes)
		}
	}
}

// TestLanePendingAccounting checks that lane timers participate in the
// pending/cancel bookkeeping like plain timers.
func TestLanePendingAccounting(t *testing.T) {
	e := NewEngine(1)
	timers := make([]*Timer, 0, 10)
	for k := int64(0); k < 10; k++ {
		timers = append(timers, e.AtLane(10, k, func(int) func() { return nil }))
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
		e.AtLane(10, key, func(int) func() {
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
	e.AtLane(10, 1, func(int) func() {
		return func() {
			keys = append(keys, 1)
			e.AtLane(10, 2, func(int) func() {
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
