package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestTimerRecordSize pins the timer layout: the two flags share the
// last word, so a Timer is 48 bytes, the size class every pooled and
// freshly allocated timer takes.
func TestTimerRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Timer{}); got > 48 {
		t.Fatalf("Timer is %d bytes, want at most 48", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %f", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events out of scheduling order: %v", order)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(1, func() { fired = true })
	tm.Cancel()
	tm.Cancel() // double cancel is safe
	e.RunUntilIdle()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestEngineAfterAndPastClamp(t *testing.T) {
	e := NewEngine(1)
	var at []float64
	e.At(10, func() {
		at = append(at, e.Now())
		e.After(5, func() { at = append(at, e.Now()) })
		e.At(3, func() { at = append(at, e.Now()) }) // in the past: clamps to now
		e.After(-1, func() { at = append(at, e.Now()) })
	})
	e.RunUntilIdle()
	want := []float64{10, 10, 10, 15}
	if len(at) != 4 {
		t.Fatalf("fired %v", at)
	}
	for i, w := range want {
		if at[i] != w {
			t.Fatalf("fire times %v, want %v", at, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func() { count++ })
	}
	e.Run(5.5)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 5.5 {
		t.Fatalf("Now = %f, want 5.5", e.Now())
	}
	e.Run(100)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 5 {
			e.After(1, rec)
		}
	}
	e.After(1, rec)
	e.RunUntilIdle()
	if depth != 5 || e.Now() != 5 {
		t.Fatalf("depth=%d now=%f", depth, e.Now())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(7)
		var times []float64
		var spawn func()
		spawn = func() {
			times = append(times, e.Now())
			if len(times) < 50 {
				e.After(e.RNG().Float64(), spawn)
			}
		}
		e.At(0, spawn)
		e.RunUntilIdle()
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %f vs %f", i, a[i], b[i])
		}
	}
}

func TestFlowSingleTransferTime(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	seed := n.AddNode(20480, 0) // 20 kB/s up, the paper's default cap
	peer := n.AddNode(0, 0)
	var doneAt float64 = -1
	n.StartFlow(seed, peer, 204800, FlowFunc(func() { doneAt = e.Now() })) // 200 kB
	e.RunUntilIdle()
	if math.Abs(doneAt-10) > 1e-9 {
		t.Fatalf("200 kB at 20 kB/s finished at %f, want 10", doneAt)
	}
}

func TestFlowEqualSharing(t *testing.T) {
	// Two simultaneous flows from one uploader: each gets half the
	// capacity, so both finish in twice the solo time.
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(1000, 0)
	a := n.AddNode(0, 0)
	b := n.AddNode(0, 0)
	var ta, tb float64
	n.StartFlow(up, a, 1000, FlowFunc(func() { ta = e.Now() }))
	n.StartFlow(up, b, 1000, FlowFunc(func() { tb = e.Now() }))
	e.RunUntilIdle()
	if math.Abs(ta-2) > 1e-9 || math.Abs(tb-2) > 1e-9 {
		t.Fatalf("finish times %f %f, want 2 2", ta, tb)
	}
}

func TestFlowRateRecomputedOnDeparture(t *testing.T) {
	// Flow B starts halfway through flow A's life; when B finishes, A's
	// rate doubles again. A: 1000 B at 1000 B/s. At t=0 both A and B
	// (500 B) start: each at 500 B/s. B finishes at t=1 (500 B). A then
	// has 500 B left at full rate: done at t=2.
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(1000, 0)
	x := n.AddNode(0, 0)
	y := n.AddNode(0, 0)
	var ta, tb float64
	n.StartFlow(up, x, 1000, FlowFunc(func() { ta = e.Now() }))
	n.StartFlow(up, y, 500, FlowFunc(func() { tb = e.Now() }))
	e.RunUntilIdle()
	if math.Abs(tb-1) > 1e-9 {
		t.Fatalf("B finished at %f, want 1", tb)
	}
	if math.Abs(ta-1.5) > 1e-9 {
		// A transfers 500 B in the first second (shared), then 500 B at
		// 1000 B/s: total 1.5 s.
		t.Fatalf("A finished at %f, want 1.5", ta)
	}
}

func TestFlowDownloadCapBinds(t *testing.T) {
	// Uploader is fast; downloader capped at 100 B/s.
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(1e6, 0)
	dn := n.AddNode(0, 100)
	var done float64
	n.StartFlow(up, dn, 1000, FlowFunc(func() { done = e.Now() }))
	e.RunUntilIdle()
	if math.Abs(done-10) > 1e-9 {
		t.Fatalf("done at %f, want 10", done)
	}
}

func TestFlowCancel(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(1000, 0)
	a := n.AddNode(0, 0)
	b := n.AddNode(0, 0)
	fired := false
	f := n.StartFlow(up, a, 1000, FlowFunc(func() { fired = true }))
	var tb float64
	n.StartFlow(up, b, 1000, FlowFunc(func() { tb = e.Now() }))
	e.After(0.5, func() { f.Cancel() })
	e.RunUntilIdle()
	if fired {
		t.Fatal("cancelled flow completed")
	}
	// B: 0.5 s at 500 B/s = 250 B, then 750 B at 1000 B/s = 0.75 s.
	if math.Abs(tb-1.25) > 1e-9 {
		t.Fatalf("B finished at %f, want 1.25", tb)
	}
	if n.ActiveUploads(up) != 0 || n.ActiveDownloads(a) != 0 {
		t.Fatal("flow accounting leaked")
	}
	f.Cancel() // idempotent
}

func TestFlowUncappedIsInstant(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	a := n.AddNode(0, 0)
	b := n.AddNode(0, 0)
	var done float64 = -1
	n.StartFlow(a, b, 1e12, FlowFunc(func() { done = e.Now() }))
	e.RunUntilIdle()
	if done != 0 {
		t.Fatalf("uncapped flow took %f", done)
	}
}

func TestFlowPanics(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	a := n.AddNode(1, 1)
	for _, fn := range []func(){
		func() { n.StartFlow(a, a, 10, nil) },
		func() { n.StartFlow(a, n.AddNode(1, 1), 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFlowRemainingView(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(100, 0)
	dn := n.AddNode(0, 0)
	f := n.StartFlow(up, dn, 1000, nil)
	e.Run(3)
	if got := f.Remaining(e.Now()); math.Abs(got-700) > 1e-6 {
		t.Fatalf("Remaining = %f, want 700", got)
	}
	if f.Rate() != 100 {
		t.Fatalf("Rate = %f", f.Rate())
	}
	if f.From() != up || f.To() != dn {
		t.Fatal("endpoints wrong")
	}
}

// Property: total bytes delivered equal total bytes injected, and every
// uploader's throughput never exceeds its capacity (conservation + cap).
func TestQuickFlowConservation(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		e := NewEngine(seed)
		n := NewNet(e)
		const upCap = 1000.0
		up := n.AddNode(upCap, 0)
		var total float64
		var delivered float64
		for _, s := range sizes {
			bytes := float64(s%5000) + 1
			total += bytes
			dst := n.AddNode(0, 0)
			// Stagger starts deterministically.
			b := bytes
			e.At(float64(s%7), func() {
				n.StartFlow(up, dst, b, FlowFunc(func() { delivered += b }))
			})
		}
		e.RunUntilIdle()
		if math.Abs(delivered-total) > 1e-6 {
			return false
		}
		// Cap check: everything uploaded in >= total/upCap seconds after
		// the first start (starts happen within the first 7 s).
		return e.Now() >= total/upCap-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

func BenchmarkNetChurningFlows(b *testing.B) {
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(1e6, 0)
	peers := make([]NodeID, 16)
	for i := range peers {
		peers[i] = n.AddNode(0, 1e5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.StartFlow(up, peers[i%16], 16384, nil)
		for e.Step() && n.ActiveUploads(up) > 8 {
		}
	}
}

// --- PR 2: retiming, pooled timers, lazy deletion ---

func TestEngineReschedule(t *testing.T) {
	e := NewEngine(1)
	var order []string
	tm := e.At(10, func() { order = append(order, "moved") })
	e.At(5, func() { order = append(order, "five") })
	e.Reschedule(tm, 2)
	e.RunUntilIdle()
	if len(order) != 2 || order[0] != "moved" || order[1] != "five" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %f", e.Now())
	}
}

// TestRescheduleTieBreakMatchesCancelPush pins the determinism contract:
// rescheduling a timer must order it against same-instant events exactly
// as if it had been cancelled and a fresh timer pushed.
func TestRescheduleTieBreakMatchesCancelPush(t *testing.T) {
	run := func(reschedule bool) []int {
		e := NewEngine(1)
		var order []int
		a := e.At(50, func() { order = append(order, 0) })
		e.At(7, func() { order = append(order, 1) })
		if reschedule {
			e.Reschedule(a, 7) // same instant as event 1, later seq
		} else {
			a.Cancel()
			e.At(7, func() { order = append(order, 0) })
		}
		e.RunUntilIdle()
		return order
	}
	got, want := run(true), run(false)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("reschedule order %v, cancel+push order %v", got, want)
	}
}

func TestRescheduleClampsToNow(t *testing.T) {
	e := NewEngine(1)
	var at float64
	tm := e.At(30, func() { at = e.Now() })
	e.At(10, func() { e.Reschedule(tm, 3) }) // in the past: clamps to now
	e.RunUntilIdle()
	if at != 10 {
		t.Fatalf("fired at %f, want 10", at)
	}
}

func TestRescheduleRevivesCancelledAndFired(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := e.At(1, func() { fired++ })
	tm.Cancel()
	e.Reschedule(tm, 2) // revive a cancelled timer in the heap
	e.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("revived timer fired %d times, want 1", fired)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d after idle", got)
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine(1)
	var timers []*Timer
	for i := 0; i < 10; i++ {
		timers = append(timers, e.After(float64(i+1), func() {}))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	for _, tm := range timers[:6] {
		tm.Cancel()
		tm.Cancel() // double cancel must not double-count
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4 (cancelled excluded)", e.Pending())
	}
	st := e.Stats()
	if st.Live != 4 || st.Live+st.Cancelled != st.HeapSize {
		t.Fatalf("Stats inconsistent: %+v", st)
	}
	e.RunUntilIdle()
	if e.Pending() != 0 || e.Stats().HeapSize != 0 {
		t.Fatalf("after idle: %+v", e.Stats())
	}
}

// TestCompactionKeepsOrder cancels a majority of a large heap, forcing a
// compaction sweep, and checks the survivors still fire in order.
func TestCompactionKeepsOrder(t *testing.T) {
	e := NewEngine(1)
	const n = 1000
	var fired []int
	var cancel []*Timer
	for i := 0; i < n; i++ {
		i := i
		tm := e.At(float64(i), func() { fired = append(fired, i) })
		if i%4 != 0 {
			cancel = append(cancel, tm)
		}
	}
	for _, tm := range cancel {
		tm.Cancel()
	}
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatalf("expected a compaction sweep, got %+v", st)
	}
	if st.Cancelled > st.HeapSize/2 {
		t.Fatalf("compaction left %d/%d dead entries", st.Cancelled, st.HeapSize)
	}
	e.RunUntilIdle()
	if len(fired) != n/4 {
		t.Fatalf("%d events fired, want %d", len(fired), n/4)
	}
	if !sort.IntsAreSorted(fired) {
		t.Fatal("survivors fired out of order")
	}
}

func TestTimerFreeListReuse(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 100; i++ {
		e.After(1, func() {})
		e.Step()
	}
	if st := e.Stats(); st.Reused < 90 {
		t.Fatalf("free list barely used: %+v", st)
	}
}

// TestRescheduleDuringOwnFire re-arms the currently firing timer from its
// own callback; the handle must go back into the heap, not the free list.
func TestRescheduleDuringOwnFire(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var tm *Timer
	tm = e.At(1, func() {
		fired++
		if fired == 1 {
			e.Reschedule(tm, e.Now()+1)
		}
	})
	e.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
}

func TestFlowListOrderAfterRemovals(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(1000, 0)
	var flows []*Flow
	for i := 0; i < 5; i++ {
		dst := n.AddNode(0, 0)
		flows = append(flows, n.StartFlow(up, dst, 1e9, nil))
	}
	// Remove the middle and first flows; the remaining walk order must be
	// the insertion order of the survivors.
	flows[2].Cancel()
	flows[0].Cancel()
	var got []*Flow
	for f := n.nodes[up].upFlows.head; f != nil; f = f.links[dirUp].next {
		got = append(got, f)
	}
	want := []*Flow{flows[1], flows[3], flows[4]}
	if len(got) != len(want) {
		t.Fatalf("walk has %d flows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk[%d] wrong flow", i)
		}
	}
	if n.ActiveUploads(up) != 3 {
		t.Fatalf("ActiveUploads = %d", n.ActiveUploads(up))
	}
}

// TestFlowRetimingLeavesNoGarbage checks the heap does not accumulate
// cancelled entries under steady rate churn (the PR 2 zero-churn goal).
// Timer scheduling is deferred to the flush, so the heap is inspected
// after an explicit Flush (the engine runs one per event on its own).
func TestFlowRetimingLeavesNoGarbage(t *testing.T) {
	e := NewEngine(1)
	n := NewNet(e)
	up := n.AddNode(1e4, 0)
	for i := 0; i < 32; i++ {
		dst := n.AddNode(0, 0)
		n.StartFlow(up, dst, 1e8, nil) // long flows: lots of retiming
	}
	n.Flush()
	st := e.Stats()
	if st.Cancelled != 0 {
		t.Fatalf("retiming left %d cancelled entries in the heap", st.Cancelled)
	}
	if st.HeapSize != 32 {
		t.Fatalf("HeapSize = %d, want 32 (one live timer per flow)", st.HeapSize)
	}
}

// TestRescheduleRecycledPanics pins the free-list safety contract: once a
// timer has fired and been recycled, rescheduling the stale handle must
// panic rather than corrupt the pool.
func TestRescheduleRecycledPanics(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(1, func() {})
	e.Step() // fires and recycles tm
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule on a recycled timer did not panic")
		}
	}()
	e.Reschedule(tm, 5)
}

// TestRescheduleCompactedCancelledPanics covers the compaction variant:
// cancelling enough timers sweeps them into the free list, after which
// "reviving" one must panic instead of double-inserting it.
func TestRescheduleCompactedCancelledPanics(t *testing.T) {
	e := NewEngine(1)
	var cancel []*Timer
	for i := 0; i < 200; i++ {
		tm := e.At(float64(i), func() {})
		if i%4 != 0 {
			cancel = append(cancel, tm)
		}
	}
	for _, tm := range cancel {
		tm.Cancel()
	}
	if e.Stats().Compactions == 0 {
		t.Fatal("expected compaction")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule on a compacted cancelled timer did not panic")
		}
	}()
	e.Reschedule(cancel[0], 500)
}
