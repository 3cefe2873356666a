package rate

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEstimatorZeroBeforeStart(t *testing.T) {
	e := NewEstimator(20)
	if e.Rate(100) != 0 {
		t.Fatal("unstarted estimator should report 0")
	}
	if e.Total() != 0 {
		t.Fatal("unstarted estimator total != 0")
	}
}

func TestEstimatorSteadyRate(t *testing.T) {
	// 1000 B every second for 60 s -> estimate converges to ~1000 B/s.
	e := NewEstimator(20)
	now := 0.0
	for i := 0; i < 60; i++ {
		now = float64(i)
		e.Update(now, 1000)
	}
	got := e.Rate(now)
	if math.Abs(got-1000) > 100 {
		t.Fatalf("steady rate = %.1f, want ~1000", got)
	}
	if e.Total() != 60000 {
		t.Fatalf("total = %d", e.Total())
	}
}

func TestEstimatorDecaysWhenIdle(t *testing.T) {
	e := NewEstimator(20)
	for i := 0; i < 30; i++ {
		e.Update(float64(i), 1000)
	}
	busy := e.Rate(30)
	idle := e.Rate(300) // long idle: the 20 s window now holds nothing
	if idle >= busy/10 {
		t.Fatalf("idle rate %.1f did not decay from %.1f", idle, busy)
	}
}

func TestEstimatorWindowForgetsOldBurst(t *testing.T) {
	// Mainline's Measure ages exponentially once past the window: each
	// 1-second step past the 20 s window multiplies the estimate by 19/20.
	// A large ancient burst must have decayed to a few percent of its peak
	// after 80 s beyond the window.
	e := NewEstimator(20)
	e.Update(0, 1e6)
	peak := e.Rate(0)
	for i := 1; i <= 100; i++ {
		e.Update(float64(i), 10)
	}
	got := e.Rate(100)
	if got > peak*0.02 {
		t.Fatalf("ancient burst still dominates: %.1f B/s (peak %.1f)", got, peak)
	}
}

func TestEstimatorClockClamp(t *testing.T) {
	e := NewEstimator(20)
	e.Update(10, 100)
	e.Update(5, 100) // time goes backwards; must not panic or go negative
	if r := e.Rate(10); r < 0 {
		t.Fatalf("negative rate %f", r)
	}
}

func TestEstimatorDefaultWindow(t *testing.T) {
	// The estimate carries the last 20 s of traffic: after a steady
	// 1000 B/s stream, an idle gap of g seconds spreads those 20 s over
	// 20+g, so the rate reads 1000*20/(20+g). Two gaps pin the window.
	for _, c := range []struct{ gap, want float64 }{{20, 500}, {60, 250}} {
		e := NewEstimator(0)
		for i := 0; i < 60; i++ {
			e.Update(float64(i), 1000)
		}
		if got := e.Rate(59 + c.gap); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("after a %v s gap: rate %v, want %v (a %v s window)", c.gap, got, c.want, DefaultMaxRatePeriod)
		}
	}
}

// TestEstimatorZeroValueMatchesNew: a zero Estimator and NewEstimator(0)
// report the same Rate and Total over one fixed sequence.
func TestEstimatorZeroValueMatchesNew(t *testing.T) {
	var zero Estimator
	made := NewEstimator(0)
	steps := []struct {
		now    float64
		amount int64
	}{{3, 0}, {3.5, 16384}, {4, 0}, {9.25, 4000}, {30, 16384}, {31, 0}, {75, 1}, {76, 500}}
	for _, st := range steps {
		zero.Update(st.now, st.amount)
		made.Update(st.now, st.amount)
		probe := st.now + 0.5
		if a, b := zero.Rate(probe), made.Rate(probe); a != b {
			t.Fatalf("at %v: Rate %v vs %v", st.now, a, b)
		}
		if zero.Total() != made.Total() {
			t.Fatalf("at %v: Total %d vs %d", st.now, zero.Total(), made.Total())
		}
	}
	if zero != *made {
		t.Fatalf("states differ: %+v vs %+v", zero, *made)
	}
}

// TestEstimatorZeroUpdateDoesNotStart: an Update of 0 bytes before the
// first byte leaves the estimator unstarted, so the window still opens at
// the first real transfer.
func TestEstimatorZeroUpdateDoesNotStart(t *testing.T) {
	var e Estimator
	e.Update(5, 0)
	if e != (Estimator{}) {
		t.Fatalf("Update(5, 0) started the estimator: %+v", e)
	}
	if e.Rate(10) != 0 || e.Total() != 0 {
		t.Fatalf("unstarted estimator reads rate %v, total %d", e.Rate(10), e.Total())
	}
	var fresh Estimator
	e.Update(12, 800)
	fresh.Update(12, 800)
	if e != fresh {
		t.Fatalf("window opened early: %+v, want %+v", e, fresh)
	}
}

func TestNewEstimatorPanicsOnOtherWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEstimator(5) did not panic")
		}
	}()
	NewEstimator(5)
}

// TestEstimatorSize pins the record at four words: the simulator embeds
// two per connection.
func TestEstimatorSize(t *testing.T) {
	if got := unsafe.Sizeof(Estimator{}); got != 32 {
		t.Fatalf("Estimator is %d bytes, want 32", got)
	}
}

func TestEstimatorOrdering(t *testing.T) {
	// The choke algorithm only needs the ORDER of rates to be correct: a
	// peer sending twice as fast must estimate higher.
	fast, slow := NewEstimator(20), NewEstimator(20)
	for i := 0; i < 40; i++ {
		now := float64(i) / 2
		fast.Update(now, 2000)
		slow.Update(now, 1000)
	}
	if fast.Rate(20) <= slow.Rate(20) {
		t.Fatalf("fast %.1f <= slow %.1f", fast.Rate(20), slow.Rate(20))
	}
}

// Property: rates are never negative and total is conserved.
func TestQuickEstimatorInvariants(t *testing.T) {
	f := func(deltas []uint16, amounts []uint16) bool {
		e := NewEstimator(20)
		now := 0.0
		var total int64
		for i := range deltas {
			now += float64(deltas[i]%100) / 10
			var amt int64
			if i < len(amounts) {
				amt = int64(amounts[i])
			}
			e.Update(now, amt)
			total += amt
			if e.Rate(now) < 0 {
				return false
			}
		}
		return e.Total() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketImmediateTake(t *testing.T) {
	b := NewBucket(20480, 20480) // 20 kB/s, paper's default cap
	if wait := b.Take(0, 16384); wait != 0 {
		t.Fatalf("first block should be free, wait=%f", wait)
	}
}

func TestBucketEnforcesRate(t *testing.T) {
	b := NewBucket(20480, 20480)
	now := 0.0
	totalWait := 0.0
	const blocks = 100
	for i := 0; i < blocks; i++ {
		w := b.Take(now, 16384)
		totalWait += w
		now += w
	}
	// 100 blocks of 16 kB at 20 kB/s is 80 s of data; the burst gives one
	// second of credit. Elapsed must be within 5% of 79 s.
	wantMin := (float64(blocks)*16384 - 20480) / 20480 * 0.95
	if now < wantMin {
		t.Fatalf("sent 100 blocks in %.1f s; cap not enforced (want >= %.1f)", now, wantMin)
	}
}

func TestBucketRefills(t *testing.T) {
	b := NewBucket(1000, 1000)
	b.Take(0, 1000)
	if b.Available(0) != 0 {
		t.Fatalf("bucket should be empty, has %f", b.Available(0))
	}
	if got := b.Available(0.5); math.Abs(got-500) > 1 {
		t.Fatalf("after 0.5 s: %f tokens, want ~500", got)
	}
	if got := b.Available(10); got != 1000 {
		t.Fatalf("bucket overfilled: %f", got)
	}
}

func TestBucketPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBucket(0,·) did not panic")
		}
	}()
	NewBucket(0, 10)
}

// Property: with sequential waits honoured, long-run throughput never
// exceeds the configured rate by more than the burst.
func TestQuickBucketThroughput(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		const rate = 5000.0
		b := NewBucket(rate, rate)
		now := 0.0
		var sent int64
		for _, s := range sizes {
			n := int(s)%4096 + 1
			w := b.Take(now, n)
			now += w
			sent += int64(n)
		}
		if now == 0 {
			return float64(sent) <= rate // all fit in the initial burst
		}
		return float64(sent) <= rate*now+rate+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
