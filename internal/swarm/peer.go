package swarm

import (
	"math/rand"
	"time"

	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/core"
	"rarestfirst/internal/rate"
	"rarestfirst/internal/sim"
)

// conn is one peer's directed view of a connection: interest and choke
// state in both directions, rate estimators, byte counters and the active
// flows. Both endpoints hold their own conn for the pair; state changes are
// mirrored synchronously (control messages are instantaneous in the model).
type conn struct {
	owner  *Peer
	remote *Peer

	// mirror is the remote side's conn for the same pair, bound at connect
	// time and nilled at disconnect, so every mirrored state change is one
	// pointer hop. A nil mirror marks a torn-down conn.
	mirror *conn

	// gen stamps the connection (see Swarm.newConn): conns are recycled
	// after the event that closed them, so a timer holding one across
	// events compares gen as well as identity. 0 marks a free conn.
	gen uint64

	initiatedByOwner bool

	amInterested   bool // owner is interested in remote
	peerInterested bool // remote is interested in owner
	amUnchoking    bool // owner unchokes remote
	peerUnchoking  bool // remote unchokes owner

	// lastUnchokedAt is when the owner last transitioned the remote from
	// choked to unchoked (new seed algorithm ordering).
	lastUnchokedAt float64

	inEst  rate.Estimator // rate owner receives from remote
	outEst rate.Estimator // rate owner sends to remote

	bytesIn  int64 // owner received from remote
	bytesOut int64 // owner sent to remote

	// Active download (owner <- remote).
	inFlow      *sim.Flow
	flowBytes   float64
	flowSettled float64
	flowPiece   int
	flowRef     core.BlockRef // local-peer block downloads only

	// Active upload (owner -> remote); bookkeeping lives on the remote's
	// conn (its inFlow fields); this pointer only marks the slot busy.
	outFlow *sim.Flow

	// stallPiece is the piece the owner requested on the strength of a
	// fake HAVE (the remote advertised it but cannot serve it): the
	// request hangs until the adversary plan's FakeHaveTimeout fires,
	// then the owner strikes the liar and retries elsewhere. -1 when no
	// stall is active; only ever set with Config.Adversary.
	stallPiece int
}

// FlowDone implements sim.FlowDone: the conn itself is the completion
// handle for every download on it, so a request allocates no callback.
// The local peer settles at block granularity, every other peer at piece
// granularity.
func (c *conn) FlowDone() {
	if c.owner.isLocal {
		c.owner.onBlockFlowDone(c)
		return
	}
	c.owner.onPieceFlowDone(c)
}

// Peer is one simulated BitTorrent peer. The instrumented local peer runs
// the full block-granularity core.Requester; remote peers run piece-level
// selection through the same core.Picker implementations.
type Peer struct {
	s    *Swarm
	id   core.PeerID
	node sim.NodeID

	have  *bitfield.Bitfield
	avail *core.Availability

	picker  core.Picker
	chokerL core.Choker
	chokerS core.Choker

	// connList is the peer set, at most MaxPeerSet long; lookups scan it.
	connList []*conn

	initiated int
	seed      bool
	freeRider bool
	departed  bool
	isLocal   bool

	// Byzantine role (drawn against Config.Adversary.Fraction at join;
	// all false for honest peers and whenever Adversary is nil).
	advPoison bool // delivered pieces are corrupt with PoisonRate
	advLiar   bool // advertises liarBits (full) instead of have
	advFlood  bool // hammers the tracker, never uploads
	// liarBits is the full bitfield a liar shows the swarm.
	liarBits *bitfield.Bitfield
	// banned holds the peers this (honest) peer has banned after poison
	// or fake-HAVE detection; connections to them are refused. strikes
	// counts detections per suspect toward the ban threshold. corrupt
	// marks in-flight pieces known poisoned (local-peer block path draws
	// per block and settles at completion). All lazily allocated —
	// honest runs with Adversary nil never touch them.
	banned  map[core.PeerID]struct{}
	strikes map[core.PeerID]int
	corrupt map[int]bool

	joinedAt   float64
	finishedAt float64 // time of leecher->seed transition; -1 if never

	// Remote-peer piece-level download state.
	inflight       *bitfield.Bitfield
	pieceRemaining map[int]float64
	downloaded     int

	// Local-peer block-level state.
	req           *core.Requester
	endgameMarked bool

	chokeTimer     *sim.Timer
	nextAnnounceOK float64

	// Steady-state scratch reused across events so rounds allocate
	// nothing: the completion/teardown connection snapshot, the picker
	// state, and the choke-round callback (bound once instead of a
	// method-value allocation per re-arm).
	connScratch []*conn
	pickState   core.PickState
	chokeFn     func()

	// Lane-mode state (Config.ChokeLanes; see lanes.go): the private
	// choke RNG a parallel compute phase may advance, the compute/apply
	// halves bound once, and the unchoke set parked between them.
	chokeRNG    *rand.Rand
	laneFn      func(worker int) func()
	laneApplyFn func()
	laneUnchoke []core.PeerID
	// Deferred tracker re-contact (lane mode): the bound compute/apply
	// halves and the at-most-one-pending-per-peer mark.
	reannounceFn      func(worker int) func()
	reannounceApplyFn func()
	reannouncePending bool
}

// hasPiece reports whether the peer owns piece i (requester-backed for the
// local peer; the bitfield is shared so this is a plain lookup).
func (p *Peer) hasPiece(i int) bool { return p.have.Has(i) }

// shownBits is the bitfield the peer ADVERTISES: the truth for honest
// peers, the full liarBits for bitfield liars. Every remote-view read
// (availability accounting, interest, piece picking) goes through it;
// truth-view reads (globalAvail, actual serve capability) stay on have.
func (p *Peer) shownBits() *bitfield.Bitfield {
	if p.advLiar {
		return p.liarBits
	}
	return p.have
}

// shownHas reports whether the peer claims piece i.
func (p *Peer) shownHas(i int) bool { return p.advLiar || p.have.Has(i) }

// looksSeed reports whether the peer presents as a seed to the swarm.
func (p *Peer) looksSeed() bool { return p.seed || p.advLiar }

// bannedPeer reports whether p has banned q.
func (p *Peer) bannedPeer(q *Peer) bool {
	_, ok := p.banned[q.id]
	return ok
}

// interestedIn reports whether p should be interested in remote. Liars
// are never interested: they pose as seeds and never download.
func (p *Peer) interestedIn(remote *Peer) bool {
	return !p.seed && !p.advLiar && p.have.AnyMissingIn(remote.shownBits())
}

// connTo returns p's conn to q, or nil when they are not connected.
func (p *Peer) connTo(q *Peer) *conn {
	for _, c := range p.connList {
		if c.remote == q {
			return c
		}
	}
	return nil
}

// connectedTo reports whether p has a connection to q.
func (p *Peer) connectedTo(q *Peer) bool { return p.connTo(q) != nil }

// ---------------------------------------------------------------------------
// Interest management

// setInterest flips the owner's interest on conn c and mirrors it to the
// remote side, notifying the collector when the local peer is involved.
func (p *Peer) setInterest(c *conn, v bool) {
	if c.amInterested == v {
		return
	}
	c.amInterested = v
	now := p.s.eng.Now()
	if rc := c.mirror; rc != nil {
		rc.peerInterested = v
	}
	if p.isLocal {
		p.s.col.LocalInterest(int(c.remote.id), now, v)
	}
	if c.remote.isLocal {
		p.s.col.RemoteInterest(int(p.id), now, v)
	}
	if v {
		p.maybeRequest(c)
	}
}

// refreshInterest recomputes interest from the bitfields (full check).
func (p *Peer) refreshInterest(c *conn) {
	p.setInterest(c, p.interestedIn(c.remote))
}

// ---------------------------------------------------------------------------
// Requesting and transfers

// retryRequests re-attempts a request on every idle connection. It must be
// called whenever a previously in-flight piece becomes requestable again
// (cancelled by a choke or a departure): that is the only transition that
// adds pick candidates without any other notification reaching this peer.
func (p *Peer) retryRequests() {
	if p.departed || p.seed {
		return
	}
	for _, c := range p.connList {
		p.maybeRequest(c)
	}
}

// maybeRequest starts a download on conn c (owner downloading from
// c.remote) when the remote unchokes us, we are interested, and no transfer
// is already active on the connection.
func (p *Peer) maybeRequest(c *conn) {
	if p.departed || p.seed || p.advLiar || c.inFlow != nil || c.stallPiece >= 0 ||
		!c.peerUnchoking || !c.amInterested {
		return
	}
	if p.isLocal {
		p.requestBlock(c)
		return
	}
	p.requestPiece(c)
}

// requestPiece is the remote-peer piece-granularity request path.
func (p *Peer) requestPiece(c *conn) {
	s := p.s
	u := c.remote
	piece := -1
	bytes := 0.0
	resumed := false
	// Resume a partially downloaded piece first (blocks already received
	// are fungible across peers, as in the real protocol): lowest index
	// for determinism.
	for q, rem := range p.pieceRemaining {
		if u.shownHas(q) && !p.hasPiece(q) && !p.inflight.Has(q) && rem > 0 {
			if piece == -1 || q < piece {
				piece = q
				bytes = rem
				resumed = true
			}
		}
	}
	if piece == -1 {
		p.pickState = core.PickState{Have: p.have, InFlight: p.inflight, Remote: u.shownBits(), Downloaded: p.downloaded}
		piece = p.picker.Pick(s.eng.RNG(), &p.pickState)
		if piece >= 0 {
			bytes = float64(s.geo.PieceSize(piece))
		}
	}
	if piece < 0 {
		return
	}
	if !u.hasPiece(piece) {
		// Fake HAVE: the remote advertised a piece it cannot serve. The
		// request stalls (the piece is held in flight so other conns skip
		// it) until the timeout strikes the liar and frees it.
		p.inflight.Set(piece)
		c.stallPiece = piece
		s.scheduleFakeHaveTimeout(p, c, piece)
		return
	}
	// Smart seed-serve (idealized coding / super seeding, A4): the initial
	// seed substitutes its least-served piece among those we lack — but
	// never hijacks a resume, or partial pieces would smear forever.
	if s.cfg.SmartSeedServe && u == s.initialSeed && !resumed {
		if sub := s.seedServeOverride(p); sub >= 0 && sub != piece {
			piece = sub
			bytes = float64(s.geo.PieceSize(piece))
			if rem, ok := p.pieceRemaining[piece]; ok && rem > 0 {
				bytes = rem
			}
		}
	}
	if u == s.initialSeed {
		s.noteSeedServeStart(piece)
	}
	delete(p.pieceRemaining, piece)
	p.inflight.Set(piece)
	c.flowPiece = piece
	c.flowBytes = bytes
	c.flowSettled = 0
	c.inFlow = s.net.StartFlow(u.node, p.node, bytes, c)
	if uc := c.mirror; uc != nil {
		uc.outFlow = c.inFlow
	}
}

// requestBlock is the local-peer block-granularity request path through the
// full Requester (strict priority + end game).
func (p *Peer) requestBlock(c *conn) {
	s := p.s
	u := c.remote
	ref, ok := p.req.Next(s.eng.RNG(), u.id, u.shownBits())
	if !ok {
		return
	}
	if !u.hasPiece(ref.Piece) {
		// Fake HAVE on the block path: the ref stays pending with the
		// Requester until the timeout requeues it and strikes the liar.
		c.flowRef = ref
		c.stallPiece = ref.Piece
		s.scheduleFakeHaveTimeout(p, c, ref.Piece)
		return
	}
	if p.req.InEndGame() && !p.endgameMarked {
		p.endgameMarked = true
		s.col.MarkEvent(s.eng.Now(), "end_game")
	}
	if u == s.initialSeed && ref.Block == 0 {
		s.noteSeedServeStart(ref.Piece)
	}
	bytes := float64(s.geo.BlockSize(ref.Piece, ref.Block))
	c.flowRef = ref
	c.flowPiece = ref.Piece
	c.flowBytes = bytes
	c.flowSettled = 0
	c.inFlow = s.net.StartFlow(u.node, p.node, bytes, c)
	if uc := c.mirror; uc != nil {
		uc.outFlow = c.inFlow
	}
}

// settleDown credits in-flight download progress on conn c to both ends'
// estimators, byte counters and (when the local peer is involved) the
// collector. Called at choke rounds and at flow completion/cancellation so
// rates are smooth at any granularity.
func (p *Peer) settleDown(c *conn) {
	if c.inFlow == nil {
		return
	}
	now := p.s.eng.Now()
	progress := c.flowBytes - c.inFlow.Remaining(now)
	delta := int64(progress - c.flowSettled)
	if delta <= 0 {
		return
	}
	c.flowSettled += float64(delta)
	c.bytesIn += delta
	c.inEst.Update(now, delta)
	if uc := c.mirror; uc != nil {
		uc.bytesOut += delta
		uc.outEst.Update(now, delta)
	}
	if p.isLocal {
		p.s.col.Downloaded(int(c.remote.id), now, delta)
	}
	if c.remote.isLocal {
		p.s.col.Uploaded(int(p.id), now, delta)
	}
}

// clearFlow drops the flow pointers on both ends after settle.
func (p *Peer) clearFlow(c *conn) {
	if uc := c.mirror; uc != nil && uc.outFlow == c.inFlow {
		uc.outFlow = nil
	}
	c.inFlow = nil
}

// onPieceFlowDone completes a remote-peer piece download.
func (p *Peer) onPieceFlowDone(c *conn) {
	p.settleDown(c)
	p.clearFlow(c)
	piece := c.flowPiece
	p.inflight.Clear(piece)
	if c.remote == p.s.initialSeed {
		p.s.recordSeedServeDone(piece)
	}
	if adv := p.s.cfg.Adversary; adv != nil && c.remote.advPoison &&
		p.s.eng.RNG().Float64() < adv.PoisonRate {
		// The piece fails its hash check: the bytes are wasted and the
		// piece must be refetched. At piece granularity the supplier is
		// unambiguous, so the poisoner is banned outright (NoBan mode only
		// counts the faults). The ban tears down c, so retry over the
		// surviving connection list rather than touching c again.
		p.s.poisonDetected(p, c.remote, piece)
		p.retryRequests()
		return
	}
	p.completePiece(piece)
	p.maybeRequest(c)
}

// onBlockFlowDone completes a local-peer block download.
func (p *Peer) onBlockFlowDone(c *conn) {
	s := p.s
	p.settleDown(c)
	p.clearFlow(c)
	now := s.eng.Now()
	s.col.BlockReceived(now)
	if adv := s.cfg.Adversary; adv != nil && c.remote.advPoison &&
		s.eng.RNG().Float64() < adv.PoisonRate {
		// A corrupt block is undetectable until the assembled piece fails
		// its hash check, so only mark the piece and keep downloading.
		if p.corrupt == nil {
			p.corrupt = make(map[int]bool)
		}
		p.corrupt[c.flowRef.Piece] = true
	}
	done, cancels := p.req.OnBlock(c.remote.id, c.flowRef)
	// End-game cancels: abort duplicate in-flight fetches of this block.
	for _, cb := range cancels {
		for _, oc := range p.connList {
			if oc.remote.id != cb.Peer {
				continue
			}
			if oc.inFlow != nil && oc.flowRef == cb.Ref {
				p.settleDown(oc)
				f := oc.inFlow
				p.clearFlow(oc)
				f.Cancel()
				p.maybeRequest(oc)
			}
			break
		}
	}
	if done {
		piece := c.flowRef.Piece
		if p.corrupt[piece] {
			// Hash check fails at assembly: blame the recorded suppliers
			// (sole contributor banned outright, mixed get strikes) and
			// requeue the piece. Bans may tear down connections, so retry
			// over the surviving list instead of c directly.
			delete(p.corrupt, piece)
			suppliers := p.req.PieceSuppliers(piece)
			p.req.OnPieceHashFail(piece)
			s.localPoisonDetected(p, suppliers, piece)
			p.retryRequests()
			return
		}
		s.col.PieceCompleted(now, piece)
		if c.remote == s.initialSeed {
			// Attribute the piece to the initial seed when it delivered
			// the completing block (local path approximation).
			s.recordSeedServeDone(piece)
		}
		p.completePiece(piece)
	}
	p.maybeRequest(c)
}

// cancelDownload aborts the active download on c. When requeue is true the
// partial progress is preserved: remote peers remember the piece remainder
// (blocks already fetched are fungible), the local peer requeues its
// pending blocks through the Requester.
func (p *Peer) cancelDownload(c *conn, requeue bool) {
	if c.stallPiece >= 0 {
		// A stalled fake-HAVE request holds no flow; free the piece. The
		// local peer's pending ref is requeued by OnPeerGone below; its
		// inflight bitfield is owned by the Requester.
		if !p.isLocal {
			p.inflight.Clear(c.stallPiece)
		}
		c.stallPiece = -1
	}
	if c.inFlow == nil {
		if p.isLocal {
			p.req.OnPeerGone(c.remote.id)
		}
		return
	}
	p.settleDown(c)
	f := c.inFlow
	rem := f.Remaining(p.s.eng.Now())
	p.clearFlow(c)
	f.Cancel()
	if p.isLocal {
		p.req.OnPeerGone(c.remote.id)
		return
	}
	p.inflight.Clear(c.flowPiece)
	if requeue && rem > 0 && !p.hasPiece(c.flowPiece) {
		p.pieceRemaining[c.flowPiece] = rem
	}
}

// ---------------------------------------------------------------------------
// Piece completion and seeding

// completePiece records ownership of piece idx, broadcasts the HAVE to the
// peer set (instantaneous control plane), updates both directions of
// interest, and lets neighbours react.
func (p *Peer) completePiece(idx int) {
	if !p.isLocal {
		// The local peer's bitfield is owned by its Requester and is
		// already updated by OnBlock.
		p.have.Set(idx)
	}
	p.downloaded++
	p.s.metrics.pieces.Inc()
	p.s.globalAvail.Inc(idx)
	if p.s.cfg.BatchHaves {
		// Batched mode: copy counts still update synchronously — a
		// neighbour disconnecting before the flush removes the whole
		// bitfield including this piece, so deferring the Incs would
		// underflow the index — but each Inc is one count increment.
		// The expensive half (per-neighbour interest and
		// request reactions) parks on the pending-HAVE set until the
		// post-event flush.
		for _, c := range p.connList {
			n := c.remote
			if c.mirror == nil {
				continue
			}
			n.avail.Inc(idx)
			if n.isLocal {
				p.s.col.CountMsg("have_received")
			}
		}
		p.s.pendingHaves = append(p.s.pendingHaves, pendingHave{p: p, piece: idx})
		if p.have.Complete() {
			p.becomeSeed()
		}
		return
	}
	// Snapshot: interest updates may trigger requests but never
	// connect/disconnect, so iterating a copy is about robustness only.
	// The scratch buffer is reused across completions; no code path
	// re-enters completePiece/becomeSeed/depart on the SAME peer while the
	// walk runs (neighbour reactions never complete a piece synchronously).
	snapshot := append(p.connScratch[:0], p.connList...)
	p.connScratch = snapshot
	for _, c := range snapshot {
		n := c.remote
		nc := c.mirror
		if nc == nil {
			continue
		}
		n.avail.Inc(idx)
		if n.isLocal {
			p.s.col.CountMsg("have_received")
		}
		// The neighbour may become interested in us (O(1) fast path: it
		// lacks the new piece; liars pose as seeds and never want).
		if !nc.amInterested && !n.seed && !n.advLiar && !n.hasPiece(idx) {
			n.setInterest(nc, true)
		}
		// Our interest in the neighbour can only drop, and only if the
		// neighbour shows the piece we just finished.
		if c.amInterested && n.shownHas(idx) {
			p.refreshInterest(c)
		}
		// The neighbour's picker may now find this piece fetchable from us.
		n.maybeRequest(nc)
	}
	if p.have.Complete() {
		p.becomeSeed()
	}
}

// flushHaves runs the deferred HAVE reactions queued by completePiece in
// BatchHaves mode — once per event, from the post-event hook, before the
// Net flush (reactions may start flows whose rates that flush settles).
//
// Reactions run in completion order, each against the owner's CURRENT
// connection list: a neighbour that disconnected since the completion is
// simply gone (its copy counts were already corrected by RemovePeer), and
// one that connected since sees the piece via the normal bitfield
// exchange, so the extra reaction is idempotent. Reactions never complete
// a piece synchronously (completions arrive via flow timers, i.e. later
// events), so the set cannot grow while it drains — the index walk is
// still re-checked against len for robustness.
func (s *Swarm) flushHaves() {
	if len(s.pendingHaves) == 0 {
		return
	}
	var t0 time.Time
	if s.phases != nil {
		t0 = time.Now()
	}
	for i := 0; i < len(s.pendingHaves); i++ {
		ph := s.pendingHaves[i]
		p, idx := ph.p, ph.piece
		if p.departed {
			continue
		}
		snapshot := append(p.connScratch[:0], p.connList...)
		p.connScratch = snapshot
		for _, c := range snapshot {
			n := c.remote
			nc := c.mirror
			if nc == nil {
				continue
			}
			// Same reaction set as the eager walk in completePiece.
			if !nc.amInterested && !n.seed && !n.advLiar && !n.hasPiece(idx) {
				n.setInterest(nc, true)
			}
			if c.amInterested && n.shownHas(idx) {
				p.refreshInterest(c)
			}
			n.maybeRequest(nc)
		}
	}
	s.pendingHaves = s.pendingHaves[:0]
	if s.phases != nil {
		s.phases.HaveFlush.Add(time.Since(t0).Nanoseconds())
	}
}

// becomeSeed switches the peer to seed state: it stops being interested,
// closes connections to other seeds (§IV-A.2.b: "when a leecher becomes a
// seed, it closes its connections to all the seeds"), swaps in the
// seed-state choke algorithm, and schedules its departure.
func (p *Peer) becomeSeed() {
	if p.seed {
		return
	}
	s := p.s
	now := s.eng.Now()
	p.seed = true
	p.finishedAt = now
	if p.isLocal {
		s.col.LocalSeed(now)
	}
	snapshot := append(p.connScratch[:0], p.connList...)
	p.connScratch = snapshot
	for _, c := range snapshot {
		// Abort any leftover end-game downloads.
		p.cancelDownload(c, false)
		if c.remote.looksSeed() {
			s.disconnect(p, c.remote)
			continue
		}
		p.setInterest(c, false)
		if c.remote.isLocal {
			s.col.RemoteSeedStatus(int(p.id), now, true)
		}
	}
	if !p.isLocal && !(p == s.initialSeed && s.cfg.KeepInitialSeed) && s.cfg.SeedLingerMean > 0 {
		linger := s.eng.RNG().ExpFloat64() * s.cfg.SeedLingerMean
		s.eng.After(linger, p.depart)
	}
}

// depart removes the peer from the torrent.
func (p *Peer) depart() {
	if p.departed || p.isLocal {
		return
	}
	s := p.s
	p.departed = true
	if p.chokeTimer != nil {
		p.chokeTimer.Cancel()
	}
	snapshot := append(p.connScratch[:0], p.connList...)
	p.connScratch = snapshot
	for _, c := range snapshot {
		s.disconnect(p, c.remote)
	}
	s.trk.Remove(p.id)
	s.globalAvail.RemovePeer(p.have)
}

// ---------------------------------------------------------------------------
// Choke rounds

// chokeRound runs one 10-second round of the appropriate choke algorithm,
// applies the transitions and re-arms itself. The re-arm happens after the
// round's work, exactly where the old deferred re-arm ran, so event
// sequence numbering — and with it same-instant tie-breaking — is
// unchanged.
func (p *Peer) chokeRound() {
	if p.departed {
		return
	}
	p.runChokeRound()
	p.chokeTimer = p.s.eng.After(core.ChokeInterval, p.chokeFn)
}

// runChokeRound is one round's body. All working storage is the swarm's
// serial snapshot buffer (chokeSnaps[0]) or per-choker scratch: a
// steady-state round performs no allocation.
func (p *Peer) runChokeRound() {
	if len(p.connList) == 0 {
		return
	}
	p.s.metrics.chokeRounds.Inc()
	s := p.s
	now := s.eng.Now()
	// Settle estimators so rate ordering reflects in-flight progress.
	for _, c := range p.connList {
		p.settleDown(c)
		if c.outFlow != nil {
			if rc := c.mirror; rc != nil {
				c.remote.settleDown(rc)
			}
		}
	}
	peers := s.chokeSnaps[0][:0]
	for _, c := range p.connList {
		peers = append(peers, core.ChokePeer{
			ID:             c.remote.id,
			Interested:     c.peerInterested,
			Unchoked:       c.amUnchoking,
			DownloadRate:   c.inEst.Rate(now),
			UploadRate:     c.outEst.Rate(now),
			LastUnchoked:   c.lastUnchokedAt,
			UploadedTo:     c.bytesOut,
			DownloadedFrom: c.bytesIn,
			RemotePieces:   c.remote.shownBits().Count(),
		})
	}
	s.chokeSnaps[0] = peers
	choker := p.chokerL
	if p.seed || p.advLiar {
		// Liars pose as seeds, so they run the seed unchoke policy too.
		choker = p.chokerS
	}
	unchoke := choker.Round(now, peers, s.eng.RNG())
	for _, c := range p.connList {
		p.applyChoke(c, containsPeerID(unchoke, c.remote.id))
	}
}

// containsPeerID reports whether id is in ids (at most UploadSlots long,
// so a linear scan beats a map).
func containsPeerID(ids []core.PeerID, id core.PeerID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// applyChoke transitions one connection's choke state and mirrors it.
func (p *Peer) applyChoke(c *conn, unchoke bool) {
	if c.amUnchoking == unchoke {
		return
	}
	s := p.s
	now := s.eng.Now()
	c.amUnchoking = unchoke
	rc := c.mirror
	if rc != nil {
		rc.peerUnchoking = unchoke
	}
	if unchoke {
		c.lastUnchokedAt = now
		if p.isLocal {
			s.col.Unchoke(int(c.remote.id), now)
		}
		if rc != nil {
			c.remote.maybeRequest(rc)
		}
		return
	}
	if p.isLocal {
		s.col.Choke(int(c.remote.id), now)
	}
	// Choking kills the remote's in-progress download from us; it keeps
	// its partial piece and re-requests elsewhere.
	if rc != nil && rc.inFlow != nil {
		c.remote.cancelDownload(rc, true)
		c.remote.retryRequests()
	} else if rc != nil && c.remote.isLocal {
		// Requeue the local peer's pending requests even without a flow.
		c.remote.req.OnPeerGone(p.id)
		c.remote.retryRequests()
	}
}
