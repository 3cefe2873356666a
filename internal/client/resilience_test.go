package client

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rarestfirst/internal/trace"
	"rarestfirst/internal/wire"
)

// faultCount reads a fault counter race-free: every CountFault call runs
// under the tracer mutex, so tests take the same lock.
func faultCount(c *Client, kind string) int {
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	return c.tr.col.FaultCounts[kind]
}

// waitFault polls until the fault counter reaches want or the deadline hits.
func waitFault(t *testing.T, c *Client, kind string, want int, deadline time.Duration) {
	t.Helper()
	timeout := time.After(deadline)
	for {
		if faultCount(c, kind) >= want {
			return
		}
		select {
		case <-timeout:
			t.Fatalf("fault %q = %d, want >= %d", kind, faultCount(c, kind), want)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestDialRetryBackoff: a dead peer address must be retried with backoff
// up to the retry budget, each attempt and retry counted, and the
// goroutine must give up cleanly afterwards.
func TestDialRetryBackoff(t *testing.T) {
	// A port that was just listening and is now closed: connection refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	m, _ := makeTorrent(t, 128<<10, "")
	c, err := New(Options{
		Meta:        m,
		Trace:       trace.NewCollector(0),
		DialTimeout: 250 * time.Millisecond,
		DialRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	c.AddPeer(dead)
	waitFault(t, c, "dial_fail", 3, 10*time.Second) // initial attempt + 2 retries
	waitFault(t, c, "dial_retry", 2, 10*time.Second)

	// The budget is a budget: give the goroutine a beat and confirm no
	// fourth attempt happens. A retry is counted before its backoff
	// sleep, so a third dial_retry would show at once even though the
	// dial it leads to waits out a backoff longer than this beat.
	time.Sleep(100 * time.Millisecond)
	if n := faultCount(c, "dial_fail"); n != 3 {
		t.Fatalf("dial_fail = %d after budget exhausted, want exactly 3", n)
	}
	if n := faultCount(c, "dial_retry"); n != 2 {
		t.Fatalf("dial_retry = %d after budget exhausted, want exactly 2", n)
	}
}

// TestDeadTrackerGracefulDegradation: a tracker answering 503 must not
// stop the client from transferring over directly-added peers; the
// announce loop keeps retrying with backoff and counts each failure.
func TestDeadTrackerGracefulDegradation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "tracker down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	announce := ts.URL + "/announce"

	m, content := makeTorrent(t, 256<<10, announce)
	seed, err := New(Options{Meta: m, Content: content, UploadBps: 8 << 20, ChokeInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()

	leech, err := New(Options{
		Meta:              m,
		Trace:             trace.NewCollector(0),
		ChokeInterval:     200 * time.Millisecond,
		AnnounceRetryBase: 10 * time.Millisecond,
		AnnounceRetryMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start("127.0.0.1:0", announce); err != nil {
		t.Fatal(err)
	}
	defer leech.Stop()

	leech.AddPeer(seed.Addr())
	waitComplete(t, 30*time.Second, leech)
	if !bytes.Equal(leech.Bytes(), content) {
		t.Fatal("content mismatch after degraded-tracker transfer")
	}
	waitFault(t, leech, "announce_fail", 2, 10*time.Second)
}

// TestRequestTimeoutSnubsStallingPeer: a peer that advertises every piece
// and unchokes but never serves a block must have its requests expired
// and re-issued elsewhere, be snubbed after repeated faults, and end up
// banned so redials skip it.
func TestRequestTimeoutSnubsStallingPeer(t *testing.T) {
	m, _ := makeTorrent(t, 128<<10, "") // 2 pieces of 64 KiB
	c, err := New(Options{
		Meta:           m,
		Trace:          trace.NewCollector(0),
		RequestTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// The stalling peer: full bitfield, unchoke, then silence.
	conn := dialHandshake(t, c, m.InfoHash())
	defer conn.Close()
	enc := wire.NewEncoder(conn)
	if err := enc.Bitfield([]byte{0xC0}); err != nil { // pieces 0 and 1
		t.Fatal(err)
	}
	if err := enc.Simple(wire.MsgUnchoke); err != nil {
		t.Fatal(err)
	}
	stallerAddr := conn.LocalAddr().String() // what the client sees as remote

	waitFault(t, c, "request_timeout", 1, 10*time.Second)
	waitFault(t, c, "peer_snubbed", 1, 10*time.Second)

	// Snubbing closes the connection...
	expectClosed(t, conn)
	// ...and bans the address so a redial is skipped.
	c.mu.Lock()
	banned := c.bannedLocked(stallerAddr)
	c.mu.Unlock()
	if !banned {
		t.Fatalf("staller %s not banned after snub", stallerAddr)
	}
}

// TestBanClosesDuplicateConnections: a ban is on the peer ID, so a
// second connection from the banned peer's ID must be closed with the
// one that offended, not left open to keep serving.
func TestBanClosesDuplicateConnections(t *testing.T) {
	m, _ := makeTorrent(t, 128<<10, "")
	c, err := New(Options{
		Meta:           m,
		Trace:          trace.NewCollector(0),
		RequestTimeout: 150 * time.Millisecond,
		BanFor:         time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Both connections carry dialHandshake's fixed peer ID. The quiet one
	// advertises nothing, so no request of it can time out.
	quiet := dialHandshake(t, c, m.InfoHash())
	defer quiet.Close()
	staller := dialHandshake(t, c, m.InfoHash())
	defer staller.Close()
	enc := wire.NewEncoder(staller)
	if err := enc.Bitfield([]byte{0xC0}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Simple(wire.MsgUnchoke); err != nil {
		t.Fatal(err)
	}

	waitFault(t, c, "peer_snubbed", 1, 10*time.Second)
	expectClosed(t, staller)
	expectClosed(t, quiet)
	if n := faultCount(c, "peer_snubbed"); n != 1 {
		t.Fatalf("peer_snubbed = %d, want 1: only the staller offended", n)
	}
}

// TestSimultaneousDialKeepsOneConnection: two leechers dial each other at
// once. Each end must keep exactly one connection to the other's peer
// ID, the same one: the connection dialed by the smaller peer ID.
func TestSimultaneousDialKeepsOneConnection(t *testing.T) {
	m, _ := makeTorrent(t, 128<<10, "")
	var cs [2]*Client
	for i := range cs {
		c, err := New(Options{Meta: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start("127.0.0.1:0", ""); err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		cs[i] = c
	}
	a, b := cs[0], cs[1]
	ida, idb := a.PeerID(), b.PeerID()
	want := min(string(ida[:]), string(idb[:]))
	a.AddPeer(b.Addr())
	b.AddPeer(a.Addr())

	// dialers lists the dialer of every connection c holds to other.
	dialers := func(c, other *Client) []string {
		c.mu.Lock()
		defer c.mu.Unlock()
		var ds []string
		for _, pc := range c.connOrder {
			if pc.peerID == other.PeerID() {
				ds = append(ds, string(pc.dialer[:]))
			}
		}
		return ds
	}
	settled := func() bool {
		da, db := dialers(a, b), dialers(b, a)
		return len(da) == 1 && len(db) == 1 && da[0] == want && db[0] == want
	}
	// Both handshakes land within milliseconds on loopback; the state
	// must then hold, not pass through one connection on its way to two.
	deadline := time.Now().Add(5 * time.Second)
	var stableSince time.Time
	for {
		if !settled() {
			stableSince = time.Time{}
		} else if stableSince.IsZero() {
			stableSince = time.Now()
		} else if time.Since(stableSince) >= 300*time.Millisecond {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a holds %d connection(s) to b, b holds %d to a; want 1 each, dialed by the smaller peer ID",
				len(dialers(a, b)), len(dialers(b, a)))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBackoffDelayCapsAndJitters: the shared backoff helper must grow
// exponentially, honor the cap, and jitter within [0.5, 1.5) of nominal.
func TestBackoffDelayCapsAndJitters(t *testing.T) {
	m, _ := makeTorrent(t, 128<<10, "")
	c, err := New(Options{Meta: m})
	if err != nil {
		t.Fatal(err)
	}
	base, max := 100*time.Millisecond, 1*time.Second
	for attempt := 1; attempt <= 8; attempt++ {
		nominal := base << (attempt - 1)
		if nominal > max {
			nominal = max
		}
		for i := 0; i < 32; i++ {
			d := c.backoffDelay(base, attempt, max)
			lo, hi := nominal/2, nominal+nominal/2
			if d < lo || d >= hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, lo, hi)
			}
		}
	}
}
