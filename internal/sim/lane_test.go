package sim

// Same-instant order. Every event fires on its own, in (at, seq) order:
// events scheduled for one instant fire in the order they were scheduled,
// whatever else shares the instant. The simulator's grid-aligned choke
// rounds (swarm.Config.ChokeLanes) rely on exactly that, so these tests
// keep the names they had when one instant's lane events ran as a batch.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// laneTrace runs one scripted same-instant scenario and returns the
// observable event log.
func laneTrace(t *testing.T) []string {
	t.Helper()
	e := NewEngine(1)
	var log []string
	ev := func(at float64, label string) {
		e.At(at, func() { log = append(log, fmt.Sprintf("%s@%g", label, e.Now())) })
	}
	ev(10, "p-first")
	ev(10, "k3")
	ev(20, "k7")
	ev(10, "k1")
	ev(10, "k2")
	ev(10, "p-last")
	ev(5, "early")
	e.RunUntilIdle()
	return log
}

// TestLaneBatchOrdering: one instant's events fire in scheduling order,
// and an earlier instant scheduled later still fires first.
func TestLaneBatchOrdering(t *testing.T) {
	want := []string{"early@5", "p-first@10", "k3@10", "k1@10", "k2@10", "p-last@10", "k7@20"}
	if got := laneTrace(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
}

// TestLaneStats: the lane counters bench/ still reads stay 0 however many
// events share an instant.
func TestLaneStats(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	for k := 0; k < 5; k++ {
		e.At(10, func() { fired++ })
	}
	e.At(20, func() { fired++ })
	e.RunUntilIdle()
	st := e.Stats()
	if fired != 6 {
		t.Fatalf("fired %d events, want 6", fired)
	}
	if st.PeakLaneWidth != 0 || st.LaneBatches != 0 || st.LaneComputeNs != 0 || st.LaneApplyNs != 0 || st.HaveFlushNs != 0 {
		t.Fatalf("lane stats nonzero: %+v", st)
	}
}

// TestLaneCancelSkipsApply: a same-instant event cancelled before the
// instant, or by an earlier event of the same instant, does not fire.
func TestLaneCancelSkipsApply(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	mk := func(key int) *Timer {
		return e.At(5, func() { fired = append(fired, key) })
	}
	t1 := mk(1)
	mk(2)
	var t3 *Timer
	e.At(5, func() {
		fired = append(fired, 0)
		t3.Cancel()
	})
	t3 = mk(3)
	t1.Cancel()
	e.RunUntilIdle()
	if want := []int{2, 0}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// TestLaneSerialParallelIdentical drives a randomized micro-simulation —
// grid-aligned events that read a shared array, mutate their own slot
// with the engine RNG and re-arm one interval later, like the swarm's
// grid-aligned choke rounds — and requires the final state and the engine
// RNG stream position to equal a plain loop over the instants that runs
// the events in their scheduling order.
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
	// step is shared by both sides: it reads the whole array and the
	// lane's neighbour, and advances the lane's own RNG.
	step := func(state []int64, rng *rand.Rand, key int) int64 {
		sum := int64(0)
		for _, v := range state {
			sum += v
		}
		return sum%97 + state[(key+1)%lanes]%13 + rng.Int63n(1000)
	}

	e := NewEngine(99)
	state := make([]int64, lanes)
	rngs := laneRNGs()
	var arm func(key int, at float64)
	arm = func(key int, at float64) {
		e.At(at, func() {
			state[key] += step(state, rngs[key], key) + int64(e.RNG().Intn(10))
			if at < instants[len(instants)-1] {
				arm(key, at+10)
			}
		})
	}
	// Arm out of key order: each instant replays the first one's order.
	for k := lanes - 1; k >= 0; k-- {
		arm(k, instants[0])
	}
	e.RunUntilIdle()

	ref := make([]int64, lanes)
	refRNGs := laneRNGs()
	engRNG := rand.New(rand.NewSource(99))
	for range instants {
		for k := lanes - 1; k >= 0; k-- {
			ref[k] += step(ref, refRNGs[k], k) + int64(engRNG.Intn(10))
		}
	}
	if !reflect.DeepEqual(state, ref) {
		t.Fatalf("engine state %v != serial reference %v", state, ref)
	}
	if got, want := e.RNG().Int63(), engRNG.Int63(); got != want {
		t.Fatalf("engine RNG diverged from the reference: %d vs %d", got, want)
	}
}

// TestLaneComputeWorkerIndex pins the schedule of 64 events of one
// instant, scheduled in random order: each fires once, in ascending seq.
func TestLaneComputeWorkerIndex(t *testing.T) {
	const events = 64
	e := NewEngine(1)
	var got, want []int
	for _, i := range rand.New(rand.NewSource(5)).Perm(events) {
		want = append(want, i)
		e.At(10, func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule = %v\nwant       %v", got, want)
	}
}

// TestLanePendingAccounting checks the pending/cancel bookkeeping of
// same-instant timers, and that their recycled timers come back clean.
func TestLanePendingAccounting(t *testing.T) {
	e := NewEngine(1)
	timers := make([]*Timer, 0, 10)
	for k := 0; k < 10; k++ {
		timers = append(timers, e.At(10, func() {}))
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
	fired := 0
	e.After(1, func() { fired++ })
	e.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("event after recycling fired %d times", fired)
	}
	if st := e.Stats(); st.Reused == 0 {
		t.Fatalf("no timer reused: %+v", st)
	}
}

// TestLaneBatchSplitsOnInterleavedPlainEvent: an event scheduled between
// two pairs of same-instant events fires between them.
func TestLaneBatchSplitsOnInterleavedPlainEvent(t *testing.T) {
	e := NewEngine(1)
	var log []string
	ev := func(label string) {
		e.At(10, func() { log = append(log, label) })
	}
	ev("a5")
	ev("a9")
	ev("plain")
	ev("a2")
	ev("a4")
	e.RunUntilIdle()
	want := []string{"a5", "a9", "plain", "a2", "a4"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

// TestLaneApplyReentrantScheduling checks that an event scheduling
// another at the current instant fires it in the same run, after the
// events already queued for that instant.
func TestLaneApplyReentrantScheduling(t *testing.T) {
	e := NewEngine(1)
	var keys []int
	e.At(10, func() {
		keys = append(keys, 1)
		e.At(10, func() { keys = append(keys, 3) })
	})
	e.At(10, func() { keys = append(keys, 2) })
	e.RunUntilIdle()
	if !reflect.DeepEqual(keys, []int{1, 2, 3}) {
		t.Fatalf("keys = %v", keys)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %f", e.Now())
	}
}
