// Package netem is the fault-injection and WAN-emulation layer for the
// live lab. A Plan (the "FaultPlan" scenarios declare) describes the
// network a swarm should experience — propagation delay with jitter,
// token-bucket bandwidth shaping, dial failures, scheduled connection
// resets and half-open stalls, a tracker blackout window, and a slow or
// failing initial seed. An Injector turns a Plan plus a seed into a
// deterministic fault schedule: which connections fault, and when, is a
// pure function of (plan, seed), so two runs with the same seed draw the
// same faults. Real TCP timing underneath is still real, which is why
// the strict same-seed fault-total contract is asserted on the sim twin
// (internal/swarm gains matching knobs) while live runs only promise a
// seed-derived schedule.
//
// Timing knobs that place faults inside a run (blackout window, fault
// delay, seed failure) are fractions of the run window rather than
// absolute times, so one named plan works both on the live lab's
// seconds-scale deadlines and the simulator's thousands-of-seconds runs.
package netem

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rarestfirst/internal/rate"
)

// Plan is a declarative fault plan. The zero value (and any plan with an
// empty Name) means "no emulation": every knob off, wrappers pass
// through. Rates are probabilities in [0,1]; *Frac fields are fractions
// of the run window.
type Plan struct {
	Name string

	// WAN emulation, applied to every wrapped (dialed) connection.
	DelayMs  float64 // one-way propagation delay per connection
	JitterMs float64 // uniform extra delay in [0, JitterMs), drawn once per connection
	RateBps  float64 // per-connection download shaping (token bucket); 0 = unshaped

	// Scheduled connection faults. A dialed connection is chosen for a
	// reset/stall with the given probability; the fault fires after an
	// exponentially distributed delay with mean FaultDelayFrac·window.
	DialFailRate   float64 // probability an outgoing dial fails outright
	ConnResetRate  float64 // probability a connection gets an abortive close (RST)
	ConnStallRate  float64 // probability a connection goes half-open (reads/writes hang)
	FaultDelayFrac float64 // mean fault delay as a fraction of the window (0 = 0.25)

	// Tracker blackout: announces return 503 inside
	// [BlackoutStartFrac, BlackoutEndFrac)·window.
	BlackoutStartFrac float64
	BlackoutEndFrac   float64

	// Initial-seed faults: the seed uploads at SeedSlowFactor of its
	// configured rate (0 = full speed), and departs at
	// SeedFailFrac·window (0 = never).
	SeedSlowFactor float64
	SeedFailFrac   float64
}

// Enabled reports whether the plan asks for any emulation at all.
func (p Plan) Enabled() bool { return p != Plan{} }

// Blackout reports whether the plan declares a tracker blackout window.
func (p Plan) Blackout() bool { return p.BlackoutEndFrac > p.BlackoutStartFrac }

// plans is the named registry scenarios refer to (Scenario.Faults / the
// experiments -faults flag). Keep README "Robustness" in sync.
var plans = map[string]Plan{
	// wan: clean but slow — transatlantic-ish delay and a 1 MiB/s pipe.
	"wan": {Name: "wan", DelayMs: 40, JitterMs: 10, RateBps: 1 << 20},
	// flaky: lossy access network — failed dials, resets and stalls, no
	// tracker trouble.
	"flaky": {Name: "flaky", DelayMs: 20, JitterMs: 5,
		DialFailRate: 0.15, ConnResetRate: 0.15, ConnStallRate: 0.05, FaultDelayFrac: 0.2},
	// blackout: the tracker alone fails for the middle of the run.
	"blackout": {Name: "blackout", BlackoutStartFrac: 0.2, BlackoutEndFrac: 0.5},
	// chaos: the acceptance plan — tracker blackout mid-flash-crowd, 10%
	// connection resets, and an initial seed that runs at half speed and
	// fails halfway through.
	"chaos": {Name: "chaos", DelayMs: 10, JitterMs: 5,
		DialFailRate: 0.1, ConnResetRate: 0.10, FaultDelayFrac: 0.25,
		BlackoutStartFrac: 0.25, BlackoutEndFrac: 0.55,
		SeedSlowFactor: 0.5, SeedFailFrac: 0.5},
}

// PlanByName looks up a registered fault plan.
func PlanByName(name string) (Plan, bool) {
	p, ok := plans[name]
	return p, ok
}

// PlanNames lists the registered plan names, sorted.
func PlanNames() []string {
	names := make([]string, 0, len(plans))
	for n := range plans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PlanNamesString is PlanNames joined for flag help text.
func PlanNamesString() string { return strings.Join(PlanNames(), ", ") }

// Injector realizes a Plan into concrete faults for one client. All
// randomness comes from its seeded RNG, so the fault schedule is a pure
// function of (plan, seed). One injector per client; not shareable.
type Injector struct {
	plan   Plan
	window time.Duration

	mu  sync.Mutex
	rng *rand.Rand

	// Observe, when set, is called with a fault kind each time the
	// injector fires one ("injected_conn_reset", ...). Set it before the
	// injector is used; it runs on timer goroutines.
	Observe func(kind string)
}

// NewInjector builds an injector for one client. window is the run's
// wall-clock budget (the live deadline), anchoring the plan's *Frac
// knobs.
func NewInjector(plan Plan, seed int64, window time.Duration) *Injector {
	if window <= 0 {
		window = time.Minute
	}
	return &Injector{plan: plan, window: window, rng: rand.New(rand.NewSource(seed))}
}

// Plan returns the plan this injector realizes.
func (in *Injector) Plan() Plan { return in.plan }

func (in *Injector) observe(kind string) {
	if in.Observe != nil {
		in.Observe(kind)
	}
}

// DialFault decides whether this outgoing dial fails. A non-nil error
// means the dial must not happen; the caller treats it like a refused
// connection (and retries on its own schedule).
func (in *Injector) DialFault() error {
	if in.plan.DialFailRate <= 0 {
		return nil
	}
	in.mu.Lock()
	fail := in.rng.Float64() < in.plan.DialFailRate
	in.mu.Unlock()
	if fail {
		in.observe("injected_dial_fail")
		return fmt.Errorf("netem: injected dial failure (plan %q)", in.plan.Name)
	}
	return nil
}

// faultDelayLocked draws when a scheduled connection fault fires:
// exponential with mean FaultDelayFrac·window, clamped to the window.
func (in *Injector) faultDelayLocked() time.Duration {
	frac := in.plan.FaultDelayFrac
	if frac <= 0 {
		frac = 0.25
	}
	d := time.Duration(in.rng.ExpFloat64() * frac * float64(in.window))
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > in.window {
		d = in.window
	}
	return d
}

// WrapConn wraps a dialed connection with the plan's delay, shaping and
// scheduled faults. Wrap only the dialing side: every lab connection has
// exactly one dialer, so emulation applies exactly once per link.
func (in *Injector) WrapConn(nc net.Conn) net.Conn {
	p := in.plan
	c := &Conn{Conn: nc, in: in, closeCh: make(chan struct{}), epoch: time.Now()}

	in.mu.Lock()
	delay := time.Duration(p.DelayMs * float64(time.Millisecond))
	if p.JitterMs > 0 {
		delay += time.Duration(in.rng.Float64() * p.JitterMs * float64(time.Millisecond))
	}
	var resetAt, stallAt time.Duration
	if p.ConnResetRate > 0 && in.rng.Float64() < p.ConnResetRate {
		resetAt = in.faultDelayLocked()
	}
	if p.ConnStallRate > 0 && in.rng.Float64() < p.ConnStallRate {
		stallAt = in.faultDelayLocked()
	}
	in.mu.Unlock()

	c.delay = delay
	if p.RateBps > 0 {
		burst := p.RateBps
		if burst < 64<<10 {
			burst = 64 << 10
		}
		c.bucket = rate.NewBucket(p.RateBps, burst)
	}
	// Arm and store the fault timers under c.mu: a timer may fire (and its
	// callback call Close) before AfterFunc returns, and the lock is what
	// orders that callback after the store.
	c.mu.Lock()
	if resetAt > 0 {
		c.resetTimer = time.AfterFunc(resetAt, c.injectReset)
	}
	if stallAt > 0 {
		c.stallTimer = time.AfterFunc(stallAt, c.injectStall)
	}
	c.mu.Unlock()
	return c
}

// Conn is a net.Conn with emulated delay, shaping, and scheduled faults.
// Deadlines pass through to the underlying connection.
type Conn struct {
	net.Conn
	in    *Injector
	delay time.Duration
	epoch time.Time

	bmu    sync.Mutex
	bucket *rate.Bucket

	mu                     sync.Mutex
	resetTimer, stallTimer *time.Timer
	stalled                bool
	closed                 bool
	closeCh                chan struct{}
}

func (c *Conn) isStalled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stalled
}

// pause sleeps for d, or until the connection closes.
func (c *Conn) pause(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closeCh:
	}
}

// Read delivers data late: propagation delay first, then the token
// bucket's verdict on n bytes. Delaying delivery rather than the wire
// keeps the wrapper protocol-agnostic — the peer's kernel buffers hide
// the difference.
func (c *Conn) Read(b []byte) (int, error) {
	if c.isStalled() {
		<-c.closeCh
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(b)
	if n > 0 {
		if c.delay > 0 {
			c.pause(c.delay)
		}
		if c.bucket != nil {
			c.bmu.Lock()
			wait := c.bucket.Take(time.Since(c.epoch).Seconds(), n)
			c.bmu.Unlock()
			if wait > 0 {
				c.pause(time.Duration(wait * float64(time.Second)))
			}
		}
	}
	return n, err
}

// Write blocks forever once the connection is half-open stalled; a Read
// already in flight on the underlying conn may still deliver one more
// chunk, which matches how a real half-open connection drains in-transit
// segments.
func (c *Conn) Write(b []byte) (int, error) {
	if c.isStalled() {
		<-c.closeCh
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// injectReset is the scheduled abortive close. SetLinger(0) makes the
// kernel send RST instead of FIN, so the peer sees a genuine
// "connection reset by peer", not a clean EOF.
func (c *Conn) injectReset() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.in.observe("injected_conn_reset")
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// injectStall flips the connection half-open: both directions hang until
// something closes it (the peer's request timeouts and snubbing are what
// should notice).
func (c *Conn) injectStall() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.stalled = true
	c.mu.Unlock()
	c.in.observe("injected_conn_stall")
}

// Close is idempotent and releases any emulation sleeps immediately.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closeCh)
	// Stop never waits for an AfterFunc callback, so holding c.mu is safe.
	if c.resetTimer != nil {
		c.resetTimer.Stop()
	}
	if c.stallTimer != nil {
		c.stallTimer.Stop()
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// BlackoutHandler wraps an HTTP handler (the lab tracker) so requests
// inside [from, to) after start get 503. The body is deliberately not
// bencoded: clients must treat it as a failed announce and back off.
func BlackoutHandler(h http.Handler, start time.Time, from, to time.Duration) http.Handler {
	if to <= from {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if el := time.Since(start); el >= from && el < to {
			http.Error(w, "tracker blackout (netem)", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}
