package sim

// Event-order contract: the engine fires events in (at, seq) order and
// skips cancelled ones. The tests drive the engine and refSched, a
// linear-scan reference scheduler written straight from that contract,
// through identical randomized schedules (relative, keyed and absolute
// events, cancels, reschedules, nested scheduling from inside callbacks)
// and require the fired-event logs to be byte-identical.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rarestfirst/internal/obs"
)

// scheduler is what the script drives: the engine (engineSched) or the
// reference (refSched). Handles are opaque to the script.
type scheduler interface {
	now() float64
	after(d float64, fn func()) any
	afterKey(d float64, key int64, fn func()) any
	at(at float64, fn func()) any
	cancel(h any)
	reschedule(h any, at float64)
	runUntilIdle()
	pending() int
}

type engineSched struct{ e *Engine }

func (s engineSched) now() float64                   { return s.e.Now() }
func (s engineSched) after(d float64, fn func()) any { return s.e.After(d, fn) }
func (s engineSched) afterKey(d float64, key int64, fn func()) any {
	return s.e.AfterKey(d, key, fn)
}
func (s engineSched) at(at float64, fn func()) any { return s.e.At(at, fn) }
func (s engineSched) cancel(h any)                 { h.(*Timer).Cancel() }
func (s engineSched) reschedule(h any, at float64) { s.e.Reschedule(h.(*Timer), at) }
func (s engineSched) runUntilIdle()                { s.e.RunUntilIdle() }
func (s engineSched) pending() int                 { return s.e.Pending() }

// refEvent is one event of the reference scheduler.
type refEvent struct {
	at        float64
	seq       uint64
	fn        func()
	cancelled bool
	queued    bool // waiting to fire
}

// refSched is the reference: no heap, no pool, no lazy deletion. Every
// pop scans all events for the least queued, non-cancelled (at, seq).
type refSched struct {
	t      float64
	seq    uint64
	events []*refEvent
}

func (r *refSched) now() float64 { return r.t }

func (r *refSched) push(at float64, ev *refEvent) *refEvent {
	if at < r.t {
		at = r.t
	}
	r.seq++
	ev.at, ev.seq, ev.queued = at, r.seq, true
	r.events = append(r.events, ev)
	return ev
}

func (r *refSched) after(d float64, fn func()) any {
	return r.push(r.t+math.Max(d, 0), &refEvent{fn: fn})
}

func (r *refSched) afterKey(d float64, _ int64, fn func()) any { return r.after(d, fn) }

func (r *refSched) at(at float64, fn func()) any { return r.push(at, &refEvent{fn: fn}) }

func (r *refSched) cancel(h any) { h.(*refEvent).cancelled = true }

// reschedule gives the event a fresh seq and puts it back in the queue,
// reviving it if cancelled.
func (r *refSched) reschedule(h any, at float64) {
	ev := h.(*refEvent)
	if at < r.t {
		at = r.t
	}
	r.seq++
	ev.at, ev.seq, ev.cancelled, ev.queued = at, r.seq, false, true
}

// next returns the least queued, non-cancelled event, or nil.
func (r *refSched) next() *refEvent {
	var best *refEvent
	for _, ev := range r.events {
		if !ev.queued || ev.cancelled {
			continue
		}
		if best == nil || ev.at < best.at || ev.at == best.at && ev.seq < best.seq {
			best = ev
		}
	}
	return best
}

func (r *refSched) runUntilIdle() {
	for {
		ev := r.next()
		if ev == nil {
			return
		}
		ev.queued = false
		r.t = ev.at
		ev.fn()
	}
}

func (r *refSched) pending() int {
	n := 0
	for _, ev := range r.events {
		if ev.queued && !ev.cancelled {
			n++
		}
	}
	return n
}

// scriptLog runs a randomized self-scheduling workload on s and returns
// the fired-event log. Everything derives from seed, and every random
// draw happens either at schedule time or inside a fired callback — so two
// schedulers that fire in the same order consume the rng identically and
// produce identical logs, while any order divergence derails the streams
// and shows up as a log mismatch.
func scriptLog(s scheduler, seed int64, top int) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string

	var slots []*scriptSlot
	nextID := 0

	var spawn func(depth int)
	spawn = func(depth int) {
		nextID++
		id := nextID
		// Coarse time grid forces plenty of same-instant ties, the case
		// where (at, seq) tie-breaking matters.
		d := math.Trunc(rng.Float64()*64) / 8
		key := rng.Int63n(96) - 16
		reSpawn := func(depth int) {
			if depth < 3 && rng.Intn(2) == 0 {
				spawn(depth + 1)
			}
		}
		switch rng.Intn(8) {
		case 0: // plain event
			sl := &scriptSlot{}
			sl.h = s.after(d, func() {
				sl.state = 1
				log = append(log, fmt.Sprintf("p%d@%.3f", id, s.now()))
				reSpawn(depth)
			})
			slots = append(slots, sl)
		case 1, 2, 3: // keyed event
			sl := &scriptSlot{}
			sl.h = s.afterKey(d, key, func() {
				sl.state = 1
				log = append(log, fmt.Sprintf("k%d@%.3f", id, s.now()))
				reSpawn(depth)
			})
			slots = append(slots, sl)
		case 4, 5: // absolute-time event
			sl := &scriptSlot{}
			sl.h = s.at(s.now()+d, func() {
				sl.state = 1
				log = append(log, fmt.Sprintf("a%d@%.3f", id, s.now()))
				reSpawn(depth)
			})
			slots = append(slots, sl)
		case 6: // cancel a pending event
			if sl := pickSlot(rng, slots, 0); sl != nil {
				s.cancel(sl.h)
				sl.state = 2
			}
		case 7: // reschedule a pending event (fresh seq, maybe new instant)
			if sl := pickSlot(rng, slots, 0); sl != nil {
				s.reschedule(sl.h, s.now()+math.Trunc(rng.Float64()*64)/8)
			}
		}
	}
	for i := 0; i < top; i++ {
		spawn(0)
	}
	s.runUntilIdle()
	return append(log, fmt.Sprintf("end@%.3f pending=%d", s.now(), s.pending()))
}

// scriptSlot tracks one scheduled event's handle and lifecycle so the
// script only ever cancels or reschedules events that are genuinely
// pending — an engine handle whose event fired may have been recycled.
type scriptSlot struct {
	h     any
	state int // 0 pending, 1 fired, 2 cancelled
}

// pickSlot returns one of the slots in state want, chosen with one rng
// draw, or nil if none qualify. Slot states are part of what the script
// observes, so both schedulers stay in rng lockstep until their logs
// diverge.
func pickSlot(rng *rand.Rand, slots []*scriptSlot, want int) *scriptSlot {
	var in []*scriptSlot
	for _, s := range slots {
		if s.state == want {
			in = append(in, s)
		}
	}
	if len(in) == 0 {
		return nil
	}
	return in[rng.Intn(len(in))]
}

// checkAgainstRef runs the script on a fresh engine and on refSched and
// fails on the first differing log line.
func checkAgainstRef(t *testing.T, seed int64, top int) {
	t.Helper()
	want := scriptLog(&refSched{}, seed, top)
	got := scriptLog(engineSched{NewEngine(0)}, seed, top)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("seed %d: event %d = %q, reference %q", seed, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d log lines, reference %d", seed, len(got), len(want))
	}
}

// TestShardedHeapMatchesSingleHeapOracle is the core property test: for a
// spread of seeds, the engine's fired-event log is byte-identical to the
// reference scheduler's.
func TestShardedHeapMatchesSingleHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkAgainstRef(t, seed, 120)
	}
}

// FuzzShardedHeapPopOrder fuzzes the same property over arbitrary seeds
// and workload sizes.
func FuzzShardedHeapPopOrder(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(42), uint8(1))
	f.Add(int64(7), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, top uint8) {
		checkAgainstRef(t, seed, 1+int(top%128))
	})
}

// TestShardRoutingAndStats pins what the bench-held names still do:
// AtKey and AfterKey schedule exactly like At and After whatever the key,
// and the three shard stats read 0.
func TestShardRoutingAndStats(t *testing.T) {
	run := func(keyed bool) ([]string, EngineStats) {
		e := NewEngine(0)
		e.SetMetrics(EngineMetrics{Phases: new(obs.PhaseTimes)})
		var log []string
		for i := 0; i < 64; i++ {
			i := i
			fn := func() { log = append(log, fmt.Sprintf("%d@%g", i, e.Now())) }
			switch {
			case keyed && i%2 == 0:
				e.AtKey(float64(i%5), int64(i*7-100), fn)
			case keyed:
				e.AfterKey(float64(i%3), int64(i), fn)
			case i%2 == 0:
				e.At(float64(i%5), fn)
			default:
				e.After(float64(i%3), fn)
			}
		}
		e.RunUntilIdle()
		return log, e.Stats()
	}
	plain, _ := run(false)
	keyed, st := run(true)
	if len(keyed) != 64 || fmt.Sprint(keyed) != fmt.Sprint(plain) {
		t.Fatalf("AtKey/AfterKey fired\n%v\nAt/After fired\n%v", keyed, plain)
	}
	if st.PeakShardHeap != 0 || st.MergePops != 0 || st.MergeNs != 0 {
		t.Fatalf("shard stats nonzero on the one-heap engine: %+v", st)
	}
}

// TestSetHeapShardsGuards pins that SetHeapShards is a no-op, also on a
// non-empty queue: the queued events still fire in (at, seq) order.
func TestSetHeapShardsGuards(t *testing.T) {
	e := NewEngine(0)
	e.SetHeapShards(8)
	var order []int
	e.At(2, func() { order = append(order, 2) })
	e.At(1, func() { order = append(order, 1) })
	e.SetHeapShards(8)
	e.SetHeapShards(0)
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after SetHeapShards, want 2", e.Pending())
	}
	e.RunUntilIdle()
	if fmt.Sprint(order) != "[1 2]" {
		t.Fatalf("fired %v, want [1 2]", order)
	}
}
