// Package client is a working BitTorrent client over real TCP sockets. It
// reuses the exact algorithm implementations the simulator evaluates —
// core.Requester (rarest first, strict priority, end game) for piece
// selection and core.LeecherChoker / core.SeedChoker for peer selection —
// so the loopback integration tests exercise the same code path as the
// paper's experiments.
//
// Scope: single torrent per client, in-memory storage, BEP 3 protocol only
// (no DHT/PEX/encryption), which matches the mainline 4.0.2 feature set
// the paper pins down.
package client

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"rarestfirst/internal/adversary"
	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/core"
	"rarestfirst/internal/metainfo"
	"rarestfirst/internal/netem"
	"rarestfirst/internal/obs"
	mrate "rarestfirst/internal/rate"
	"rarestfirst/internal/trace"
	"rarestfirst/internal/tracker"
	"rarestfirst/internal/wire"
)

// PipelineDepth is the number of outstanding block requests kept per peer.
const PipelineDepth = 8

// Options configures a Client.
type Options struct {
	// Meta describes the torrent. Required.
	Meta *metainfo.MetaInfo
	// Content, when non-nil, makes the client a seed with this data. Its
	// length must match the metainfo.
	Content []byte
	// UploadBps caps the upload rate in bytes/second (0 = the paper's
	// 20 kB/s mainline default).
	UploadBps float64
	// ChokeInterval overrides the 10-second choke round cadence; tests use
	// short intervals so reciprocation dynamics fit in seconds.
	ChokeInterval time.Duration
	// Seed, when nonzero, derives the peer ID suffix and the choke/request
	// RNG from it instead of ambient entropy, so live runs are
	// reproducible in everything the client itself randomizes (network
	// timing stays real). Clients sharing a torrent must use distinct
	// seeds or their identical peer IDs make them reject each other.
	Seed int64
	// Trace, when non-nil, instruments the client: every peer-set,
	// interest, choke, byte and piece event is recorded into the
	// collector, timestamped in wall-clock seconds since the client
	// started — the same observables the paper's modified mainline client
	// logged, via the same trace.Collector the simulator fills. The
	// collector must not be shared across clients and must be read only
	// after Stop and Collector.Finalize. When nil (the default) no hook
	// touches the hot path beyond one nil check.
	Trace *trace.Collector
	// SampleEvery is the availability snapshot cadence while tracing
	// (default 500ms).
	SampleEvery time.Duration
	// GlobalAvail, when tracing, supplies the torrent-global availability
	// counters for snapshots: minimum copies over live swarm members and
	// the number of rare pieces (held only by the initial seed). Only the
	// lab orchestrating the swarm can see them; nil leaves both at zero.
	GlobalAvail func() (globalMin, globalRare int)

	// DialTimeout bounds each outgoing dial attempt (0 = 5s, the
	// historical hardcoded value).
	DialTimeout time.Duration
	// DialRetries is how many times a failed outgoing dial is retried
	// (0 = none, the historical behavior). Retries back off exponentially
	// from a 100 ms base with ±50% jitter drawn from the client RNG.
	DialRetries int
	// RequestTimeout, when positive, re-requests blocks a peer has not
	// delivered within it: the block returns to the request pool and the
	// pipelines of other unchoked peers are topped up immediately
	// (endgame-style reissue). Each scan that expires requests counts one
	// fault against the peer, and at three faults the peer is snubbed: its
	// connection closed and the peer banned for BanFor. 0 disables the
	// scanner.
	RequestTimeout time.Duration
	// BanFor is how long a snubbed, flooding or poisoning peer is banned
	// (0 = 30s): AddPeer and the announce loop skip its address, and a
	// connection from its peer ID is refused in either direction.
	BanFor time.Duration
	// AnnounceRetryBase / AnnounceRetryMax bound the jittered exponential
	// backoff between announce attempts after tracker failures
	// (0 = 1s / 30s). Announce failures never touch existing
	// connections: a client that loses the tracker keeps serving.
	AnnounceRetryBase time.Duration
	AnnounceRetryMax  time.Duration
	// Faults, when non-nil, routes every outgoing dial through the netem
	// injector: injected dial failures, per-connection WAN emulation and
	// scheduled resets/stalls. The injector must not be shared across
	// clients; its Observe hook is wired into this client's fault
	// counters.
	Faults *netem.Injector

	// ResumeDir, when non-empty, enables durable resume state for a
	// downloading client: every verified piece is persisted (data write,
	// fsync, then an atomic-rename manifest commit), and a later client
	// constructed over the same directory re-hashes the claimed pieces
	// and restarts wanting only what it lacks — corrupt or torn pieces
	// are dropped and counted as resume_hash_fail. Ignored for seeds
	// (Content non-nil): a seed restarted with its content needs no
	// resume state.
	ResumeDir string

	// Adversary, when non-nil, makes this client Byzantine: it corrupts
	// outbound blocks, advertises a full bitfield, or floods requests
	// according to the behavior's model. The behavior must not be shared
	// across clients. Honest clients leave it nil.
	Adversary *adversary.Behavior
	// NoPoisonBan disables banning on hash failures (measurement mode:
	// faults are still counted, poisoners stay in the peer set).
	NoPoisonBan bool
}

// Client is a single-torrent BitTorrent peer.
type Client struct {
	meta   *metainfo.MetaInfo
	geo    metainfo.Geometry
	peerID [20]byte

	mu         sync.Mutex
	content    []byte
	req        *core.Requester
	avail      *core.Availability
	conns      map[core.PeerID]*peerConn
	connOrder  []*peerConn
	nextConn   core.PeerID
	chokerL    core.Choker
	chokerS    core.Choker
	seeding    bool
	closed     bool
	uploaded   int64
	downloaded int64
	rng        *lockedRand
	// endgameMarked latches the first end-game entry for the trace.
	endgameMarked bool
	// chokeSnap is the choke-round snapshot buffer (chokeSnapshot), and
	// chokeChanges runChokeRound's list of transitions to send.
	chokeSnap    []core.ChokePeer
	chokeChanges []chokeChange

	bucket   *mrate.Bucket
	bucketMu sync.Mutex

	// banned maps a banned peer's host:port, and bannedIDs its handshake
	// peer ID, to the ban expiry: the address stops our dials to it, the
	// ID refuses its connections in either direction (an inbound peer's
	// address is only its ephemeral port). Entries are pruned lazily on
	// lookup. Guarded by mu.
	banned    map[string]time.Time
	bannedIDs map[[20]byte]time.Time

	// Resilience policy (immutable after New).
	dialTimeout  time.Duration
	dialRetries  int
	reqTimeout   time.Duration
	banFor       time.Duration
	annRetryBase time.Duration
	annRetryMax  time.Duration
	inj          *netem.Injector

	// Byzantine behavior (nil for honest clients) and whether honest
	// clients ban poisoners (immutable after New).
	adv         *adversary.Behavior
	noPoisonBan bool

	ln         net.Listener
	wg         sync.WaitGroup
	stopCh     chan struct{}
	start      time.Time
	chokeEvery time.Duration

	// om caches obs registry handles (metrics.go); all nil/no-op when no
	// registry was active at New time.
	om clientMetrics

	// tr is nil unless Options.Trace was set; all hooks are nil-safe.
	tr          *tracer
	sampleEvery time.Duration
	globalAvail func() (int, int)

	// onComplete, if set, is invoked once when the download finishes.
	onComplete func()

	// resume is the durable piece store (nil without Options.ResumeDir);
	// the stats fields record what the load path restored at New time.
	resume          *resumeStore
	resumePieces    int
	resumeBytes     int64
	resumeHashFails int
}

// New builds a client; call Start to begin listening and announcing.
func New(opts Options) (*Client, error) {
	if opts.Meta == nil {
		return nil, errors.New("client: missing metainfo")
	}
	geo := opts.Meta.Geometry()
	if opts.Content != nil && int64(len(opts.Content)) != geo.TotalLength {
		return nil, fmt.Errorf("client: content length %d != torrent length %d", len(opts.Content), geo.TotalLength)
	}
	up := opts.UploadBps
	if up <= 0 {
		up = 20 << 10
	}
	chokeEvery := opts.ChokeInterval
	if chokeEvery <= 0 {
		chokeEvery = time.Duration(core.ChokeInterval * float64(time.Second))
	}
	sampleEvery := opts.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = 500 * time.Millisecond
	}
	dialTimeout := opts.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	banFor := opts.BanFor
	if banFor <= 0 {
		banFor = 30 * time.Second
	}
	annRetryBase := opts.AnnounceRetryBase
	if annRetryBase <= 0 {
		annRetryBase = time.Second
	}
	annRetryMax := opts.AnnounceRetryMax
	if annRetryMax <= 0 {
		annRetryMax = 30 * time.Second
	}
	c := &Client{
		meta:         opts.Meta,
		geo:          geo,
		conns:        map[core.PeerID]*peerConn{},
		banned:       map[string]time.Time{},
		bannedIDs:    map[[20]byte]time.Time{},
		bucket:       mrate.NewBucket(up, up),
		stopCh:       make(chan struct{}),
		start:        time.Now(),
		rng:          newLockedRand(opts.Seed),
		chokerL:      &core.LeecherChoker{},
		chokerS:      &core.SeedChoker{},
		chokeEvery:   chokeEvery,
		sampleEvery:  sampleEvery,
		globalAvail:  opts.GlobalAvail,
		dialTimeout:  dialTimeout,
		dialRetries:  opts.DialRetries,
		reqTimeout:   opts.RequestTimeout,
		banFor:       banFor,
		annRetryBase: annRetryBase,
		annRetryMax:  annRetryMax,
		inj:          opts.Faults,

		adv:         opts.Adversary,
		noPoisonBan: opts.NoPoisonBan,
	}
	c.tr = newTracer(opts.Trace, c.start)
	c.om = newClientMetrics(obs.Active())
	if c.inj != nil {
		// Injected faults (resets, stalls, dial failures) land in the same
		// counter family as the client's own detections.
		c.inj.Observe = func(kind string) { c.fault(kind) }
	}
	copy(c.peerID[:8], "-RF0100-")
	if opts.Seed != 0 {
		// Deterministic identity: the suffix derives from the seed so a
		// fixed-seed live run reproduces its peer IDs bit-for-bit.
		c.rng.Rand().Read(c.peerID[8:])
	} else if _, err := rand.Read(c.peerID[8:]); err != nil {
		return nil, fmt.Errorf("client: peer id: %w", err)
	}
	c.avail = core.NewAvailability(geo.NumPieces)
	c.req = core.NewRequester(geo, &core.RarestFirst{Avail: c.avail})
	if opts.Content != nil {
		c.content = append([]byte(nil), opts.Content...)
		for i := 0; i < geo.NumPieces; i++ {
			if !opts.Meta.VerifyPiece(i, c.pieceData(i)) {
				return nil, fmt.Errorf("client: seed content fails hash of piece %d", i)
			}
			c.req.AddHave(i)
		}
		c.seeding = true
		c.tr.localSeed()
	} else {
		c.content = make([]byte, geo.TotalLength)
		if opts.ResumeDir != "" {
			store, err := openResumeStore(opts.ResumeDir, opts.Meta)
			if err != nil {
				return nil, err
			}
			restored, bytes, hashFails, hadManifest, err := store.load(c.content)
			if err != nil {
				store.close()
				return nil, err
			}
			c.resume = store
			if hadManifest {
				// This is a restart: bulk-restore the re-verified pieces
				// into the requester and surface what survived through the
				// fault-counter pipeline (peer_resume / resume_bytes_saved
				// / resume_hash_fail ride the same FaultCounts family as
				// the netem and adversary events).
				if err := c.req.RestoreFromBitfield(restored); err != nil {
					store.close()
					return nil, err
				}
				if restored != nil {
					c.resumePieces = restored.Count()
				}
				c.resumeBytes = bytes
				c.resumeHashFails = hashFails
				c.fault("peer_resume")
				c.faultN("resume_bytes_saved", int(bytes))
				if hashFails > 0 {
					c.faultN("resume_hash_fail", hashFails)
				}
				if c.req.Complete() {
					c.seeding = true
					c.tr.localSeed()
				}
			}
		}
	}
	return c, nil
}

// ResumeStats reports what the resume load path restored at New time:
// pieces that re-verified, their byte total, and claimed pieces dropped
// for failing their hash. All zero without Options.ResumeDir or on a
// fresh directory.
func (c *Client) ResumeStats() (pieces int, bytes int64, hashFails int) {
	return c.resumePieces, c.resumeBytes, c.resumeHashFails
}

// now returns seconds since client start (estimator clock).
func (c *Client) now() float64 { return time.Since(c.start).Seconds() }

func (c *Client) pieceData(i int) []byte {
	start := int64(i) * int64(c.geo.PieceLength)
	return c.content[start : start+int64(c.geo.PieceSize(i))]
}

// PeerID returns this client's wire peer ID.
func (c *Client) PeerID() [20]byte { return c.peerID }

// Port returns the bound listen port (valid after Start).
func (c *Client) Port() int {
	if c.ln == nil {
		return 0
	}
	return c.ln.Addr().(*net.TCPAddr).Port
}

// Complete reports whether every piece has been downloaded and verified.
func (c *Client) Complete() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.req.Complete()
}

// Progress returns (done pieces, total pieces).
func (c *Client) Progress() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.req.Downloaded(), c.geo.NumPieces
}

// Stats returns lifetime uploaded/downloaded byte counters.
func (c *Client) Stats() (uploaded, downloaded int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uploaded, c.downloaded
}

// Bytes returns a copy of the downloaded content; valid once Complete.
func (c *Client) Bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.content...)
}

// OnComplete registers fn to run (once, on the handler goroutine) when the
// download completes. Must be called before Start.
func (c *Client) OnComplete(fn func()) { c.onComplete = fn }

// Start begins listening, announcing and the choke rotation. announceURL
// may be empty to run tracker-less (peers added via AddPeer).
func (c *Client) Start(listenAddr, announceURL string) error {
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("client: listen: %w", err)
	}
	c.ln = ln
	c.wg.Add(1)
	go c.acceptLoop()
	c.wg.Add(1)
	go c.chokeLoop()
	if announceURL != "" {
		c.wg.Add(1)
		go c.announceLoop(announceURL)
	}
	if c.tr != nil {
		c.wg.Add(1)
		go c.sampleLoop(c.sampleEvery, c.globalAvail)
	}
	if c.reqTimeout > 0 {
		c.wg.Add(1)
		go c.requestTimeoutLoop()
	}
	if c.adv != nil && c.adv.FloodInterval() > 0 {
		c.wg.Add(1)
		go c.floodLoop(c.adv.FloodInterval())
	}
	return nil
}

// floodLoop is the request-flood adversary: every interval it fires one
// piece request at every connected peer, ignoring choke and interest
// state. Honest peers defend by closing connections that accumulate
// unservable requests (see handleRequest).
func (c *Client) floodLoop(interval time.Duration) {
	defer c.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			c.mu.Lock()
			conns := append([]*peerConn(nil), c.connOrder...)
			c.mu.Unlock()
			for _, pc := range conns {
				piece := c.adv.FloodPiece(c.geo.NumPieces)
				size := c.geo.BlockSize(piece, 0)
				pc.send(func(e *wire.Encoder) error {
					return e.Request(uint32(piece), 0, uint32(size))
				})
			}
		}
	}
}

// Stop closes the listener and every connection and waits for goroutines.
// Shutdown ordering guarantees clean resume state: handler goroutines are
// fully drained (wg.Wait) BEFORE the resume store closes, so any piece
// verified during teardown is either completely persisted — data write,
// fsync, manifest rename — or not persisted at all; a half-written claim
// cannot exist.
func (c *Client) Stop() {
	if !c.shutdown() {
		return
	}
	if c.resume != nil {
		c.resume.close()
	}
}

// Kill is Stop's crash twin: it closes the resume store FIRST — before
// connections drain — so an in-flight piece persist fails mid-write
// instead of completing, exactly as a SIGKILL would leave it. The
// manifest only ever claims pieces whose data write finished, so the
// next client over the same ResumeDir re-hashes its way back to a
// consistent state (the kill-during-write regression test pins this).
func (c *Client) Kill() {
	if c.resume != nil {
		c.resume.kill()
	}
	c.shutdown()
}

// shutdown runs the common teardown; it reports false when the client
// was already stopped.
func (c *Client) shutdown() bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	conns := append([]*peerConn(nil), c.connOrder...)
	c.mu.Unlock()
	close(c.stopCh)
	if c.ln != nil {
		c.ln.Close()
	}
	for _, pc := range conns {
		pc.conn.Close()
	}
	c.wg.Wait()
	return true
}

func (c *Client) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleConn(conn, false)
		}()
	}
}

// AddPeer dials addr and joins the swarm through it, retrying failed
// dials with jittered exponential backoff up to the configured budget
// (Options.DialRetries; zero keeps the historical single attempt).
func (c *Client) AddPeer(addr string) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for attempt := 0; ; attempt++ {
			c.mu.Lock()
			skip := c.closed || c.bannedLocked(addr)
			c.mu.Unlock()
			if skip {
				return
			}
			conn, err := c.dialPeer(addr)
			if err == nil {
				c.handleConn(conn, true)
				return
			}
			c.fault("dial_fail")
			if attempt >= c.dialRetries {
				return
			}
			c.fault("dial_retry")
			select {
			case <-c.stopCh:
				return
			case <-time.After(c.backoffDelay(dialBackoff, attempt+1, 30*time.Second)):
			}
		}
	}()
}

func (c *Client) announceLoop(announceURL string) {
	defer c.wg.Done()
	interval := 30 * time.Second
	event := "started"
	fails := 0
	for {
		c.mu.Lock()
		left := int64(c.geo.NumPieces-c.req.Downloaded()) * int64(c.geo.PieceLength)
		if left < 0 {
			left = 0
		}
		up, down := c.uploaded, c.downloaded
		c.mu.Unlock()
		resp, err := tracker.Announce(tracker.AnnounceRequest{
			URL:        announceURL,
			InfoHash:   c.meta.InfoHash(),
			PeerID:     c.peerID,
			Port:       c.Port(),
			Uploaded:   up,
			Downloaded: down,
			Left:       left,
			Event:      event,
			Compact:    true,
		})
		var wait time.Duration
		if err != nil {
			// Tracker unreachable or blacked out: back off and retry. The
			// "started" event (and any other pending one) stays queued for
			// the next attempt, and existing connections are untouched —
			// losing the tracker degrades peer discovery, not transfers.
			fails++
			c.fault("announce_fail")
			c.om.announceFails.Inc()
			wait = c.backoffDelay(c.annRetryBase, fails, c.annRetryMax)
		} else {
			c.om.announces.Inc()
			event = ""
			fails = 0
			if resp.Interval > 0 {
				interval = time.Duration(resp.Interval) * time.Second
			}
			for _, p := range resp.Peers {
				if p.Port == c.Port() && p.IP.IsLoopback() {
					continue // ourselves
				}
				addr := p.Addr()
				c.mu.Lock()
				dup := c.hasConnTo(addr)
				banned := c.bannedLocked(addr)
				n := len(c.connOrder)
				c.mu.Unlock()
				if !dup && !banned && n < 80 {
					c.AddPeer(addr)
				}
			}
			wait = interval
		}
		select {
		case <-c.stopCh:
			return
		case <-time.After(wait):
		}
	}
}

func (c *Client) hasConnTo(addr string) bool {
	for _, pc := range c.connOrder {
		if pc.remoteAddr == addr {
			return true
		}
	}
	return false
}

// chokeLoop runs the 10-second choke rounds.
func (c *Client) chokeLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.chokeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			c.runChokeRound()
		}
	}
}

// chokeChange is one choke transition a round sends to a peer.
type chokeChange struct {
	pc *peerConn
	un bool
}

func (c *Client) runChokeRound() {
	c.om.chokeRounds.Inc()
	now := c.now()
	c.mu.Lock()
	choker := c.chokerL
	if c.seeding {
		choker = c.chokerS
	}
	unchoke := choker.Round(now, c.chokeSnapshot(now), c.rng.Rand())
	changes := c.chokeChanges[:0]
	for _, pc := range c.connOrder {
		v := slices.Contains(unchoke, pc.id) // at most a handful of IDs
		if pc.amUnchoking != v {
			pc.amUnchoking = v
			if v {
				pc.lastUnchokedAt = now
			}
			changes = append(changes, chokeChange{pc, v})
			// Trace the transition while still holding c.mu: recording
			// after unlock races the peer's dropConn, which could
			// re-latch unchoked state on a record that already left.
			if v {
				c.tr.unchoke(pc.id)
			} else {
				c.tr.choke(pc.id)
			}
		}
	}
	c.chokeChanges = changes
	c.mu.Unlock()
	// Send outside the state lock; only chokeLoop runs rounds, so the
	// buffer is not refilled before this loop ends.
	for _, ch := range changes {
		if ch.un {
			ch.pc.send(func(e *wire.Encoder) error { return e.Simple(wire.MsgUnchoke) })
		} else {
			ch.pc.send(func(e *wire.Encoder) error { return e.Simple(wire.MsgChoke) })
		}
	}
}

// chokeSnapshot refills the client's snapshot buffer with one ChokePeer
// per interested connection, in connection order, and returns it: the
// chokers read no other row (see core.Choker). RemotePieces is the count
// of pieces the remote has advertised (0 before its bitfield or first
// HAVE). The caller holds c.mu.
func (c *Client) chokeSnapshot(now float64) []core.ChokePeer {
	peers := c.chokeSnap[:0]
	for _, pc := range c.connOrder {
		if !pc.peerInterested {
			continue
		}
		remotePieces := 0
		if pc.haveBits != nil {
			remotePieces = pc.haveBits.Count()
		}
		peers = append(peers, core.ChokePeer{
			ID:             pc.id,
			Interested:     true,
			Unchoked:       pc.amUnchoking,
			DownloadRate:   pc.inEst.Rate(now),
			UploadRate:     pc.outEst.Rate(now),
			LastUnchoked:   pc.lastUnchokedAt,
			UploadedTo:     pc.outEst.Total(),
			DownloadedFrom: pc.inEst.Total(),
			RemotePieces:   remotePieces,
		})
	}
	c.chokeSnap = peers
	return peers
}

// dropConn removes a closed connection from client state.
func (c *Client) dropConn(pc *peerConn) {
	c.mu.Lock()
	dropped := false
	if _, ok := c.conns[pc.id]; ok {
		dropped = true
		delete(c.conns, pc.id)
		for i, x := range c.connOrder {
			if x == pc {
				c.connOrder = append(c.connOrder[:i], c.connOrder[i+1:]...)
				break
			}
		}
		if pc.haveBits != nil {
			c.avail.RemovePeer(pc.haveBits)
		}
		c.req.OnPeerGone(pc.id)
	}
	c.mu.Unlock()
	if dropped {
		c.om.conns.Add(-1)
		c.tr.peerLeft(pc.id)
	}
}

// broadcastHave announces a completed piece to every peer.
func (c *Client) broadcastHave(piece int) {
	c.mu.Lock()
	conns := append([]*peerConn(nil), c.connOrder...)
	c.mu.Unlock()
	for _, pc := range conns {
		pc.send(func(e *wire.Encoder) error { return e.Have(uint32(piece)) })
	}
}

// Addr returns the listen address as host:port.
func (c *Client) Addr() string {
	return net.JoinHostPort("127.0.0.1", strconv.Itoa(c.Port()))
}

// Bitfield returns a copy of the verified-piece bitfield.
func (c *Client) Bitfield() *bitfield.Bitfield {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.req.Have().Copy()
}
