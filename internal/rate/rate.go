// Package rate implements the bandwidth measurement used by the choke
// algorithm and the shaping used by the real client.
//
// Estimator is the mainline 4.0.2 "Measure" class's average over at most
// the last 20 s (DefaultMaxRatePeriod), with one departure: reading a rate
// writes nothing. Mainline folds a zero-byte update into every read, so
// its estimate depends on who looked and when; here it is a function of
// the bytes and the time only. The paper's choke algorithm orders peers by
// this estimate, and the simulator and the real client share it.
//
// All timestamps are float64 seconds on an arbitrary monotonic clock; the
// caller supplies "now" explicitly so that simulated and wall-clock time
// both work.
package rate

import "fmt"

// DefaultMaxRatePeriod is the mainline client's 20-second estimation window.
const DefaultMaxRatePeriod = 20.0

// Estimator measures a transfer rate the way mainline 4.0.2 does: each
// update folds the new byte count into a running average whose memory is
// capped at DefaultMaxRatePeriod seconds. The zero value is an unstarted
// estimator, ready to use; the simulator embeds one in each side of a
// connection by value, so the record is kept to four words.
type Estimator struct {
	rateSince float64
	last      float64
	rate      float64
	total     int64 // 0 until the first byte: the estimator has not started
}

// NewEstimator returns a new, unstarted estimator. The window is always
// DefaultMaxRatePeriod: window must be 0 (the default) or
// DefaultMaxRatePeriod, and any other value panics.
func NewEstimator(window float64) *Estimator {
	if window != 0 && window != DefaultMaxRatePeriod {
		panic(fmt.Sprintf("rate: estimator window %v s; only %v s is supported", window, DefaultMaxRatePeriod))
	}
	return &Estimator{}
}

// Update records amount bytes transferred at time now (seconds). The
// first positive amount starts the window, one second before now (the
// mainline fudge, so early rates aren't infinite); before that an update
// with amount <= 0 is a no-op.
func (e *Estimator) Update(now float64, amount int64) {
	if e.total == 0 {
		if amount <= 0 {
			return
		}
		e.rateSince = now - 1
		e.last = e.rateSince
	}
	if now < e.last {
		now = e.last // clock must not run backwards; clamp
	}
	e.total += amount
	if now > e.rateSince {
		// float64(...) rounds the product, so no port fuses it into a
		// multiply-add (scripts/fused_float.sh).
		e.rate = (float64(e.rate*(e.last-e.rateSince)) + float64(amount)) / (now - e.rateSince)
	}
	e.last = now
	if e.rateSince < now-DefaultMaxRatePeriod {
		e.rateSince = now - DefaultMaxRatePeriod
	}
}

// Rate returns the estimated rate in bytes/second at time now, and
// changes nothing: it is the rate an Update(now, 0) would leave, the
// window's bytes spread over the time since the window opened, so an idle
// peer's estimate still decays toward zero. A time before the last update
// reads as that update's time.
func (e *Estimator) Rate(now float64) float64 {
	if e.total == 0 {
		return 0
	}
	if now < e.last {
		now = e.last // after the first byte, rateSince < last <= now
	}
	// float64(...) rounds the product, as in Update (scripts/fused_float.sh).
	return float64(e.rate*(e.last-e.rateSince)) / (now - e.rateSince)
}

// Total returns the total bytes observed.
func (e *Estimator) Total() int64 { return e.total }

// String summarises the estimator for logs.
func (e *Estimator) String() string {
	return fmt.Sprintf("rate{%.1fB/s over %.0fs, total %d}", e.rate, DefaultMaxRatePeriod, e.total)
}

// Bucket is a token bucket used by the real client to cap upload rate (the
// paper's client uploads at most 20 kB/s). Tokens are bytes.
type Bucket struct {
	ratePerSec float64 // fill rate, bytes/second
	burst      float64 // bucket capacity, bytes
	tokens     float64
	lastFill   float64
	started    bool
}

// NewBucket returns a token bucket filling at ratePerSec bytes/second with
// the given burst capacity. A non-positive burst defaults to one second of
// tokens.
func NewBucket(ratePerSec, burst float64) *Bucket {
	if ratePerSec <= 0 {
		panic("rate: non-positive bucket rate")
	}
	if burst <= 0 {
		burst = ratePerSec
	}
	return &Bucket{ratePerSec: ratePerSec, burst: burst}
}

func (b *Bucket) fill(now float64) {
	if !b.started {
		b.started = true
		b.lastFill = now
		b.tokens = b.burst
		return
	}
	if now > b.lastFill {
		b.tokens += float64((now - b.lastFill) * b.ratePerSec) // float64: no fused multiply-add
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.lastFill = now
	}
}

// Take attempts to remove n tokens at time now. It returns 0 if the tokens
// were available, otherwise the number of seconds to wait until they will
// be.
func (b *Bucket) Take(now float64, n int) float64 {
	b.fill(now)
	if float64(n) <= b.tokens {
		b.tokens -= float64(n)
		return 0
	}
	deficit := float64(n) - b.tokens
	wait := deficit / b.ratePerSec
	// Commit the take; the caller sleeps for the returned duration.
	b.tokens -= float64(n)
	return wait
}

// Available returns the token count at time now without taking any.
func (b *Bucket) Available(now float64) float64 {
	b.fill(now)
	return b.tokens
}
