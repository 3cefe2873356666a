package main

// tracker-announce: compact re-announces against one pre-populated
// info-hash, closed loop over two keep-alive connections; the traced run
// adds an open-loop phase and a timing middleware around the handler.

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"rarestfirst/internal/obs"
	"rarestfirst/internal/tracker"
)

// trackerClients is the closed loop's client count. Handlers serialise on
// the server mutex, so two clients already saturate it.
const trackerClients = 2

type trackerInstance struct {
	b     *bench
	peers int
	web   *httptest.Server
	ih    [20]byte
	picks []int // seeded sequence of which peer re-announces next
	next  int

	populate time.Duration

	// traced run only
	rec      *recorder
	timeEach bool
	iter     int
	iterSpan int
	mu       sync.Mutex
	client   []time.Duration // client-observed latencies
	handler  []time.Duration // middleware-observed handler times

	failed int // of the last batch
}

func (b *bench) newTracker(seed int64) (instance, error) {
	return b.newTrackerInstance(seed, b.sz.trackerPeers, trackerMode{})
}

// trackerMode selects what the traced run adds to the plain tracker.
type trackerMode struct {
	reg      *obs.Registry // the server's own obs series
	timeEach bool          // time every announce (client) and handler call (middleware)
	rec      *recorder     // spans around both
}

// newTrackerInstance builds a tracker with `peers` registered peers and
// runs the warm-up.
func (b *bench) newTrackerInstance(seed int64, peers int, mode trackerMode) (*trackerInstance, error) {
	t := &trackerInstance{b: b, peers: peers, rec: mode.rec, timeEach: mode.timeEach}
	rng := rand.New(rand.NewSource(seed))
	rng.Read(t.ih[:])
	t.picks = make([]int, 4096)
	for i := range t.picks {
		t.picks[i] = rng.Intn(peers)
	}
	srv := tracker.NewServer(0)
	if mode.reg != nil {
		srv.SetMetrics(mode.reg)
	}
	h := srv.Handler()
	if mode.timeEach {
		h = t.middleware(h)
	}
	t.web = httptest.NewServer(h)

	t0 := time.Now()
	for k := 0; k < peers; k++ {
		if err := t.announce(k, "started", 0); err != nil {
			t.close()
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	t.populate = time.Since(t0)
	if err := t.batch(b.sz.trackerWarm); err != nil {
		t.close()
		return nil, err
	}
	t.client, t.handler = nil, nil
	return t, nil
}

// announce registers or refreshes peer k. Each peer has its own routable
// address, passed as the explicit ip parameter a NATed client would use.
func (t *trackerInstance) announce(k int, event string, span int) error {
	url := fmt.Sprintf("%s/announce?ip=10.%d.%d.%d", t.web.URL, k>>16&255, k>>8&255, k&255)
	if span != 0 {
		url += "&span=" + strconv.Itoa(span)
	}
	var id [20]byte
	copy(id[:], fmt.Sprintf("-RF0100-%012d", k))
	resp, err := tracker.Announce(tracker.AnnounceRequest{
		URL: url, InfoHash: t.ih, PeerID: id, Port: 1024 + k%60000,
		Left: int64(k % 4), Event: event, Compact: true,
	})
	if err != nil {
		return err
	}
	if len(resp.Peers) == 0 && t.peers > 1 && event == "" {
		return fmt.Errorf("announce returned no peers")
	}
	return nil
}

// middleware times the tracker's handler; the span id the client put in
// the query makes the handler span a child of that announce.
func (t *trackerInstance) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := 0
		if parent, err := strconv.Atoi(r.URL.Query().Get("span")); err == nil && t.rec != nil {
			id = t.rec.start("tracker.handler", parent)
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		if id != 0 {
			t.rec.end(id)
		}
		t.mu.Lock()
		t.handler = append(t.handler, d)
		t.mu.Unlock()
	})
}

// batch sends n re-announces, split over the closed loop's clients: each
// sends its next one only when the previous reply has arrived.
func (t *trackerInstance) batch(n int) error {
	iterSpan := t.iterSpan
	var wg sync.WaitGroup
	var fails [trackerClients]int
	var errs [trackerClients]error
	for c := 0; c < trackerClients; c++ {
		c := c
		picks := make([]int, 0, n/trackerClients+1)
		for i := c; i < n; i += trackerClients {
			picks = append(picks, t.picks[(t.next+i)%len(t.picks)])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range picks {
				span := 0
				if iterSpan != 0 { // the warm-up has no iteration span
					span = t.rec.start("tracker.announce", iterSpan)
				}
				t0 := time.Now()
				err := t.announce(k, "", span)
				if t.timeEach {
					d := time.Since(t0)
					if span != 0 {
						t.rec.end(span)
					}
					t.mu.Lock()
					t.client = append(t.client, d)
					t.mu.Unlock()
				}
				if err != nil {
					fails[c]++
					errs[c] = err
				}
			}
		}()
	}
	wg.Wait()
	t.next += n
	t.failed = 0
	var err error
	for c := range fails {
		t.failed += fails[c]
		if errs[c] != nil {
			err = errs[c]
		}
	}
	return err
}

func (t *trackerInstance) prepare() error {
	t.iter++
	return nil
}

func (t *trackerInstance) run() error {
	if t.rec != nil {
		t.iterSpan = t.rec.root("iteration", t.iter)
		defer func() { t.rec.end(t.iterSpan) }()
	}
	t.batch(t.b.sz.trackerBatch) // failures are tallied in finish
	return nil
}

func (t *trackerInstance) finish() (tally, error) {
	n := t.b.sz.trackerBatch
	tl := tally{attempted: n, failed: t.failed, ops: float64(n - t.failed)}
	if t.failed > 0 {
		return tl, fmt.Errorf("%d of %d announces failed", t.failed, n)
	}
	return tl, nil
}

func (t *trackerInstance) close() {
	if t.web != nil {
		t.web.Close()
		t.web = nil
	}
}

// batchWalls times n closed-loop batches.
func (t *trackerInstance) batchWalls(n int) ([]float64, error) {
	var walls []float64
	for i := 0; i < n; i++ {
		t.prepare()
		t0 := time.Now()
		t.run()
		walls = append(walls, time.Since(t0).Seconds())
		if _, err := t.finish(); err != nil {
			return nil, err
		}
	}
	return walls, nil
}

// openLoop sends announces on a fixed schedule whatever the tracker's
// pace, timing each from the instant it was due: a stall is charged to
// every request queued behind it. It returns the latencies and how late
// the generator itself ran.
func (t *trackerInstance) openLoop(rate int, secs float64) (latency, late []time.Duration, err error) {
	n := int(float64(rate) * secs)
	latency, late = make([]time.Duration, n), make([]time.Duration, n)
	errs := make([]error, n)
	// 256 in flight is ~0.85 s of backlog at 300/s: past that the
	// generator blocks and the wait shows up as lateness.
	inflight := make(chan struct{}, 256)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / float64(rate) * float64(time.Second)))
		time.Sleep(time.Until(due))
		inflight <- struct{}{}
		late[i] = time.Since(due)
		k := t.picks[(t.next+i)%len(t.picks)]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = t.announce(k, "", 0)
			latency[i] = time.Since(due)
			<-inflight
		}(i)
	}
	wg.Wait()
	t.next += n
	for _, e := range errs {
		if e != nil {
			return nil, nil, fmt.Errorf("open loop: %w", e)
		}
	}
	return latency, late, nil
}

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// traceTracker is the traced run of tracker-announce.
func (b *bench) traceTracker(seed int64, rec *recorder, out *layerValues) error {
	n := b.sz.probeIters

	// Plain server: the closed loop with every announce timed, then the
	// open loop.
	plain, err := b.newTrackerInstance(seed, b.sz.trackerPeers, trackerMode{})
	if err != nil {
		return err
	}
	defer plain.close()
	plain.timeEach = true // client side only: the handler stays bare
	off, err := plain.batchWalls(n)
	if err != nil {
		return err
	}
	clientP50 := durQuantile(plain.client, 0.5)
	out.set("tracker.populate_s", plain.populate.Seconds())
	out.set("tracker.announces_per_s", float64(b.sz.trackerBatch)/median(off))
	out.set("tracker.announce_p50_ms", ms(clientP50))
	latency, late, err := plain.openLoop(b.sz.openLoopRate, b.sz.openLoopSecs)
	if err != nil {
		return err
	}
	out.set("tracker.announce_p99_ms", ms(durQuantile(latency, 0.99)))
	out.set("tracker.open_loop_late_ms", ms(durQuantile(late, 0.99)))
	plain.close()

	// Traced server: obs series on, middleware and spans around the handler.
	traced, err := b.newTrackerInstance(seed, b.sz.trackerPeers, trackerMode{reg: obs.NewRegistry(), timeEach: true, rec: rec})
	if err != nil {
		return err
	}
	defer traced.close()
	on, err := traced.batchWalls(n)
	if err != nil {
		return err
	}
	out.set("trace_overhead_ratio", median(on)/median(off))
	handlerP50 := durQuantile(traced.handler, 0.5)
	out.set("tracker.handler_us", us(handlerP50))
	out.set("tracker.handler_p99_us", us(durQuantile(traced.handler, 0.99)))
	out.set("tracker.http_overhead_us", us(durQuantile(traced.client, 0.5)-handlerP50))
	traced.close()

	// The same handler at a tenth of the swarm exposes its O(swarm) cost.
	small, err := b.newTrackerInstance(seed, max(2, b.sz.trackerPeers/10), trackerMode{timeEach: true})
	if err != nil {
		return err
	}
	defer small.close()
	if _, err := small.batchWalls(1); err != nil {
		return err
	}
	out.set("tracker.handler_us_200peers", us(durQuantile(small.handler, 0.5)))
	return nil
}
