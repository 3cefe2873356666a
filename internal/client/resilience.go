package client

// Fault tolerance: dial retry/backoff, snub bans, request timeouts with
// endgame-style reissue, and the shared backoff schedule the announce
// loop uses against a blacked-out tracker. Everything here is policy on
// top of the ordinary client paths — with the options at their zero
// values the only change from the historical client is that dial
// timeouts are configurable.

import (
	"net"
	"time"

	"rarestfirst/internal/core"
)

// The resilience policy's fixed settings.
const (
	// dialBackoff is the base delay of the dial retries (Options.DialRetries).
	dialBackoff = 100 * time.Millisecond
	// snubAfter is the request-timeout fault count at which a peer is
	// snubbed (Options.RequestTimeout).
	snubAfter = 3
)

// backoffDelay is the jittered exponential backoff for the n-th
// consecutive failure (n >= 1): base·2^(n-1) capped at max, then scaled
// by a uniform factor in [0.5, 1.5) so a swarm's retries decorrelate.
func (c *Client) backoffDelay(base time.Duration, n int, max time.Duration) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	c.mu.Lock()
	f := 0.5 + float64(c.rng.Rand().Float64()) // float64: no fused multiply-add
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// dialPeer runs one dial attempt through the fault injector when one is
// configured, wrapping the resulting connection for WAN emulation.
func (c *Client) dialPeer(addr string) (net.Conn, error) {
	if c.inj != nil {
		if err := c.inj.DialFault(); err != nil {
			return nil, err
		}
	}
	conn, err := net.DialTimeout("tcp", addr, c.dialTimeout)
	if err != nil {
		return nil, err
	}
	if c.inj != nil {
		conn = c.inj.WrapConn(conn)
	}
	return conn, nil
}

// banActive reports whether key is currently banned in bans, pruning the
// entry once expired.
func banActive[K comparable](bans map[K]time.Time, key K) bool {
	until, ok := bans[key]
	if !ok {
		return false
	}
	if time.Now().After(until) {
		delete(bans, key)
		return false
	}
	return true
}

// bannedLocked reports whether addr is currently banned. Caller holds
// c.mu.
func (c *Client) bannedLocked(addr string) bool { return banActive(c.banned, addr) }

// banLocked bans pc's address and its peer ID for the configured window
// and closes any other connection to that ID (pc itself is closed by the
// caller, outside the lock; closing a socket never blocks, so holding
// c.mu is safe). The address ban only stops our dials: for an inbound pc
// the address is the dialer's ephemeral port, which nothing dials, so
// that entry is inert until a lookup prunes it. Caller holds c.mu.
func (c *Client) banLocked(pc *peerConn) {
	until := time.Now().Add(c.banFor)
	c.banned[pc.remoteAddr] = until
	c.bannedIDs[pc.peerID] = until
	for _, other := range c.connOrder {
		if other != pc && other.peerID == pc.peerID {
			other.conn.Close()
		}
	}
}

// poisonSuspectsLocked accrues suspicion on the peers that supplied
// blocks of a hash-failed piece and returns the connections that crossed
// into a ban (for the caller to close outside the lock). A sole
// contributor is banned immediately — only it could have corrupted the
// piece; with mixed contributors each gets a strike and is banned at
// core.PoisonStrikes. Caller holds c.mu.
func (c *Client) poisonSuspectsLocked(suppliers []core.PeerID) []*peerConn {
	var banned []*peerConn
	sole := len(suppliers) == 1
	for _, id := range suppliers {
		pc := c.conns[id]
		if pc == nil {
			continue // already gone; its blocks were requeued by dropConn
		}
		pc.poisonStrikes++
		if c.noPoisonBan {
			continue
		}
		if sole || pc.poisonStrikes >= core.PoisonStrikes {
			c.banLocked(pc)
			banned = append(banned, pc)
		}
	}
	return banned
}

// requestTimeoutLoop scans pending requests a few times per timeout
// window. Only started when Options.RequestTimeout is positive.
func (c *Client) requestTimeoutLoop() {
	defer c.wg.Done()
	tick := c.reqTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			c.expireRequests()
		}
	}
}

// expireRequests returns timed-out blocks to the request pool, counts a
// fault against each offending peer (snubbing and banning it at
// snubAfter), and immediately reissues the freed blocks on other peers'
// pipelines.
func (c *Client) expireRequests() {
	now := time.Now()
	var snubbed []*peerConn
	expired := 0
	c.mu.Lock()
	for _, pc := range c.connOrder {
		if pc.snubbed || len(pc.pending) == 0 {
			continue
		}
		n := 0
		for ref, at := range pc.pending {
			if now.Sub(at) < c.reqTimeout {
				continue
			}
			delete(pc.pending, ref)
			c.req.OnRequestTimeout(pc.id, ref)
			c.fault("request_timeout")
			if pc.peerUnchoking {
				// The peer advertised the piece, unchoked us, then never
				// delivered — the fake-HAVE signature (an honest choke
				// would have cleared the pending set first).
				c.fault("fake_have_timeout")
			}
			n++
		}
		if n == 0 {
			continue
		}
		expired += n
		pc.faults++
		if pc.faults >= snubAfter {
			pc.snubbed = true
			c.banLocked(pc)
			c.fault("peer_snubbed")
			snubbed = append(snubbed, pc)
		}
	}
	c.mu.Unlock()
	// Close outside the lock; dropConn runs on the reader goroutine.
	for _, pc := range snubbed {
		pc.conn.Close()
	}
	if expired > 0 {
		// Endgame-style reissue: the expired blocks are back in the pool,
		// so top up every other pipeline right away instead of waiting for
		// the next piece completion.
		c.refreshAllInterest()
	}
}
