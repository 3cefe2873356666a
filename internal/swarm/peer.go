package swarm

import (
	"math"

	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/core"
	"rarestfirst/internal/rate"
	"rarestfirst/internal/sim"
)

// conn is one peer's directed view of a connection: the owner's interest
// and unchoke toward the remote, rate estimators (which also count the
// bytes) and the owner's active download. Both endpoints hold their own
// conn for the pair and reach each other through mirror, and each fact
// has one writer: what the remote does toward the owner (its interest,
// its unchoke, its download from the owner) is read from mirror, never
// copied, since control messages are instantaneous in the model. Conns
// are carved from connBlock-sized blocks (see Swarm.newConn), and the
// record is kept to 144 bytes (TestConnRecordSize).
type conn struct {
	owner *Peer

	// mirror is the remote side's conn for the same pair, bound at connect
	// time and kept until the conn is reclaimed: mirror.owner is the
	// remote peer, mirror.amInterested its interest in the owner,
	// mirror.amUnchoking its unchoke of the owner and mirror.inFlow the
	// owner's upload to it.
	mirror *conn

	// gen stamps the connection (see Swarm.newConn): conns are recycled
	// after the event that closed them, so a timer holding one across
	// events compares gen as well as identity. 0 marks a free conn.
	gen uint64

	initiatedByOwner bool

	amInterested bool // owner is interested in remote
	amUnchoking  bool // owner unchokes remote

	// closed marks a torn-down conn: disconnect sets it on both sides,
	// which stay readable as disconnect left them until the event ends.
	closed bool

	// stallPiece is the piece the owner requested on the strength of a
	// fake HAVE (the remote advertised it but cannot serve it): the
	// request hangs until the adversary plan's fakeHaveTimeout fires,
	// then the owner strikes the liar and retries elsewhere. -1 when no
	// stall is active; only ever set with Config.Adversary. A stalled
	// local-peer request keeps its block in flowBlock.
	stallPiece int32
	// remoteID is mirror.owner.id, cached so a choke round's apply loop
	// and a peer-set scan (connTo) read no other record.
	remoteID core.PeerID

	// lastUnchokedAt is when the owner last transitioned the remote from
	// choked to unchoked (new seed algorithm ordering).
	lastUnchokedAt float64

	inEst  rate.Estimator // rate and bytes owner receives from remote
	outEst rate.Estimator // rate and bytes owner sends to remote

	// Active download (owner <- remote). flowBlock is the block within
	// flowPiece on the local peer's block downloads (see flowRef).
	inFlow      *sim.Flow
	flowBytes   float64
	flowSettled float64
	flowPiece   int32
	flowBlock   int32
}

// flowRef is the block the local peer is downloading on c.
func (c *conn) flowRef() core.BlockRef {
	return core.BlockRef{Piece: int(c.flowPiece), Block: int(c.flowBlock)}
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
//
// A join allocates nothing of its own in a warm swarm: the Peer itself is
// carved from the swarm's 16-peer blocks, and the bitfields, the
// availability index, the default picker and the default chokers are
// values inside it (haveBits … seedChoker), with the have/avail/inflight/
// picker/chokerL/chokerS fields pointing at them. Their variable-size
// backing (bitfield words, copy counts, the connList array) is carved
// from the swarm's peer slabs (see Swarm.carvePeer). The peer's own timed
// events (choke round, abort check, departure) fire handles held in it
// (chokeEv, abortEv, departEv), so scheduling one binds nothing. The
// local peer's have points at its Requester's bitfield instead, and a
// non-default picker or choker is allocated on its own.
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
	// It is carved at that capacity, and cut to it, when the peer joins
	// and never grows (connectNow refuses a connection past the cap).
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

	// Remote-peer piece-level download state. pieceRemaining holds the
	// pieces a choke or a disconnect interrupted, each at most once, with
	// the bytes still to fetch; it stays nil until the first requeue and
	// is short, so lookups scan it.
	inflight       *bitfield.Bitfield
	pieceRemaining []partialPiece
	downloaded     int

	// Local-peer block-level state.
	req           *core.Requester
	endgameMarked bool

	chokeTimer     *sim.Timer
	nextAnnounceOK float64

	// Steady-state scratch reused across events so rounds allocate
	// nothing: the completion/teardown connection snapshot and the picker
	// state.
	connScratch []*conn
	pickState   core.PickState

	// The events the engine fires for this peer (see peerEvent).
	chokeEv  peerEvent
	abortEv  peerEvent
	departEv peerEvent

	// Inline storage the pointer fields above point at (see the type
	// comment); code reads it through those fields only.
	haveBits      bitfield.Bitfield
	inflightBits  bitfield.Bitfield
	availIdx      core.Availability
	rarest        core.RarestFirst
	leecherChoker core.LeecherChoker
	seedChoker    core.SeedChoker
}

// peerEvent is one of a peer's timed events: the handle its timer fires,
// held by value inside the Peer, with fire a method expression such as
// (*Peer).chokeRound, so scheduling it binds nothing. Peers are never
// freed, so the handle outlives any event pending on it. Peer itself does
// not implement sim.Event: no exported method fires a round.
type peerEvent struct {
	p    *Peer
	fire func(*Peer)
}

// Fire implements sim.Event.
func (e *peerEvent) Fire() { e.fire(e.p) }

// partialPiece is an interrupted piece download: the piece and the bytes
// still to fetch (see cancelDownload).
type partialPiece struct {
	piece int32
	rem   float64
}

// remaining returns the bytes still to fetch of piece, if a choke or a
// disconnect interrupted it.
func (p *Peer) remaining(piece int) (float64, bool) {
	for _, pp := range p.pieceRemaining {
		if int(pp.piece) == piece {
			return pp.rem, true
		}
	}
	return 0, false
}

// dropRemaining forgets piece's remainder, if any. It swaps the last
// entry into the gap: order does not matter, since the resume scan in
// requestPiece takes the lowest piece.
func (p *Peer) dropRemaining(piece int) {
	for i, pp := range p.pieceRemaining {
		if int(pp.piece) == piece {
			last := len(p.pieceRemaining) - 1
			p.pieceRemaining[i] = p.pieceRemaining[last]
			p.pieceRemaining = p.pieceRemaining[:last]
			return
		}
	}
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
		if c.remoteID == q.id {
			return c
		}
	}
	return nil
}

// connectedTo reports whether p has a connection to q.
func (p *Peer) connectedTo(q *Peer) bool { return p.connTo(q) != nil }

// ---------------------------------------------------------------------------
// Interest management

// setInterest flips the owner's interest on conn c, notifying the
// collector when the local peer is involved.
func (p *Peer) setInterest(c *conn, v bool) {
	if c.amInterested == v {
		return
	}
	c.amInterested = v
	now := p.s.eng.Now()
	if p.isLocal {
		p.s.col.LocalInterest(int(c.remoteID), now, v)
	}
	if c.mirror.owner.isLocal {
		p.s.col.RemoteInterest(int(p.id), now, v)
	}
	if v {
		p.maybeRequest(c)
	}
}

// refreshInterest recomputes interest from the bitfields (full check).
func (p *Peer) refreshInterest(c *conn) {
	p.setInterest(c, p.interestedIn(c.mirror.owner))
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
// c.mirror.owner) when the remote unchokes us, we are interested, and no
// transfer is already active on the connection.
func (p *Peer) maybeRequest(c *conn) {
	if p.departed || p.seed || p.advLiar || c.inFlow != nil || c.stallPiece >= 0 ||
		!c.mirror.amUnchoking || !c.amInterested {
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
	u := c.mirror.owner
	piece := -1
	bytes := 0.0
	resumed := false
	// Resume a partially downloaded piece first (blocks already received
	// are fungible across peers, as in the real protocol): lowest index
	// for determinism.
	for _, pp := range p.pieceRemaining {
		q, rem := int(pp.piece), pp.rem
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
		c.stallPiece = int32(piece)
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
			if rem, ok := p.remaining(piece); ok && rem > 0 {
				bytes = rem
			}
		}
	}
	if u == s.initialSeed {
		s.noteSeedServeStart(piece)
	}
	p.dropRemaining(piece)
	p.inflight.Set(piece)
	c.flowPiece = int32(piece)
	c.flowBytes = bytes
	c.flowSettled = 0
	c.inFlow = s.net.StartFlow(u.node, p.node, bytes, c)
}

// requestBlock is the local-peer block-granularity request path through the
// full Requester (strict priority + end game).
func (p *Peer) requestBlock(c *conn) {
	s := p.s
	u := c.mirror.owner
	ref, ok := p.req.Next(s.eng.RNG(), u.id, u.shownBits())
	if !ok {
		return
	}
	if !u.hasPiece(ref.Piece) {
		// Fake HAVE on the block path: the ref stays pending with the
		// Requester until the timeout requeues it and strikes the liar.
		c.flowBlock = int32(ref.Block)
		c.stallPiece = int32(ref.Piece)
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
	c.flowPiece = int32(ref.Piece)
	c.flowBlock = int32(ref.Block)
	c.flowBytes = bytes
	c.flowSettled = 0
	c.inFlow = s.net.StartFlow(u.node, p.node, bytes, c)
}

// settleDown credits in-flight download progress on conn c to both ends'
// estimators and (when the local peer is involved) the collector. Called
// at choke rounds and at flow completion/cancellation so rates are smooth
// at any granularity.
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
	c.inEst.Update(now, delta)
	if !c.closed {
		// The one write that crosses to the mirror: the remote's outEst
		// copies this inEst, and stays a copy until reading a rate no
		// longer ages the estimator (ROADMAP item 20), when each side can
		// read the other's.
		c.mirror.outEst.Update(now, delta)
	}
	if p.isLocal {
		p.s.col.Downloaded(int(c.remoteID), now, delta)
	}
	if c.mirror.owner.isLocal {
		p.s.col.Uploaded(int(p.id), now, delta)
	}
}

// onPieceFlowDone completes a remote-peer piece download.
func (p *Peer) onPieceFlowDone(c *conn) {
	p.settleDown(c)
	c.inFlow = nil
	u := c.mirror.owner
	piece := int(c.flowPiece)
	p.inflight.Clear(piece)
	if u == p.s.initialSeed {
		p.s.recordSeedServeDone(piece)
	}
	if adv := p.s.cfg.Adversary; adv != nil && u.advPoison &&
		p.s.eng.RNG().Float64() < adv.PoisonRate {
		// The piece fails its hash check: the bytes are wasted and the
		// piece must be refetched. At piece granularity the supplier is
		// unambiguous, so the poisoner is banned outright (NoBan mode only
		// counts the faults). The ban tears down c, so retry over the
		// surviving connection list rather than touching c again.
		p.s.poisonDetected(p, u, piece)
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
	c.inFlow = nil
	u := c.mirror.owner
	now := s.eng.Now()
	s.col.BlockReceived(now)
	if adv := s.cfg.Adversary; adv != nil && u.advPoison &&
		s.eng.RNG().Float64() < adv.PoisonRate {
		// A corrupt block is undetectable until the assembled piece fails
		// its hash check, so only mark the piece and keep downloading.
		if p.corrupt == nil {
			p.corrupt = make(map[int]bool)
		}
		p.corrupt[int(c.flowPiece)] = true
	}
	done, cancels := p.req.OnBlock(c.remoteID, c.flowRef())
	// End-game cancels: abort duplicate in-flight fetches of this block.
	for _, cb := range cancels {
		for _, oc := range p.connList {
			if oc.remoteID != cb.Peer {
				continue
			}
			if oc.inFlow != nil && oc.flowRef() == cb.Ref {
				p.settleDown(oc)
				f := oc.inFlow
				oc.inFlow = nil
				f.Cancel()
				p.maybeRequest(oc)
			}
			break
		}
	}
	if done {
		piece := int(c.flowPiece)
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
		if u == s.initialSeed {
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
			p.inflight.Clear(int(c.stallPiece))
		}
		c.stallPiece = -1
	}
	if c.inFlow == nil {
		if p.isLocal {
			p.req.OnPeerGone(c.remoteID)
		}
		return
	}
	p.settleDown(c)
	f := c.inFlow
	rem := f.Remaining(p.s.eng.Now())
	c.inFlow = nil
	f.Cancel()
	if p.isLocal {
		p.req.OnPeerGone(c.remoteID)
		return
	}
	piece := int(c.flowPiece)
	p.inflight.Clear(piece)
	if requeue && rem > 0 && !p.hasPiece(piece) {
		// Starting the flow dropped any earlier remainder of the piece,
		// and a piece is in flight on one conn at a time, so this is its
		// only entry.
		p.pieceRemaining = append(p.pieceRemaining, partialPiece{piece: int32(piece), rem: rem})
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
	// Snapshot: interest updates may trigger requests but never
	// connect/disconnect, so iterating a copy is about robustness only.
	// The scratch buffer is reused across completions; no code path
	// re-enters completePiece/becomeSeed/depart on the SAME peer while the
	// walk runs (neighbour reactions never complete a piece synchronously).
	snapshot := append(p.connScratch[:0], p.connList...)
	p.connScratch = snapshot
	for _, c := range snapshot {
		if c.closed {
			continue
		}
		nc := c.mirror
		n := nc.owner
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
		r := c.mirror.owner
		if r.looksSeed() {
			s.disconnect(p, r)
			continue
		}
		p.setInterest(c, false)
		if r.isLocal {
			s.col.RemoteSeedStatus(int(p.id), now, true)
		}
	}
	if !p.isLocal && !(p == s.initialSeed && s.cfg.KeepInitialSeed) && s.cfg.SeedLingerMean > 0 {
		linger := s.eng.RNG().ExpFloat64() * s.cfg.SeedLingerMean
		s.eng.AfterEvent(linger, &p.departEv)
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
		s.disconnect(p, c.mirror.owner)
	}
	s.trk.Remove(p.id)
	s.globalAvail.RemovePeer(p.have)
}

// ---------------------------------------------------------------------------
// Choke rounds

// armFirstChokeRound schedules a joining or rejoining peer's first choke
// round. By default it lands at a uniform point of the next interval, so
// rounds do not all fire in lockstep. Under Config.ChokeLanes it lands on
// the next point of the global ChokeInterval grid instead, so every peer's
// rounds share the grid's instants.
func (p *Peer) armFirstChokeRound() {
	s := p.s
	if s.cfg.ChokeLanes {
		p.chokeTimer = s.eng.AtEvent(nextChokeInstant(s.eng.Now()), &p.chokeEv)
		return
	}
	p.chokeTimer = s.eng.AfterEvent(s.eng.RNG().Float64()*core.ChokeInterval, &p.chokeEv)
}

// nextChokeInstant returns the first global choke-grid point strictly
// after now. Grid points are exact multiples of core.ChokeInterval, and so
// is a grid point plus the interval (exact in float64 for any reachable
// simulation length): a round armed here and re-armed by chokeRound never
// drifts off the grid.
func nextChokeInstant(now float64) float64 {
	return (math.Floor(now/core.ChokeInterval) + 1) * core.ChokeInterval
}

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
	p.chokeTimer = p.s.eng.AfterEvent(core.ChokeInterval, &p.chokeEv)
}

// runChokeRound is one round's body. All working storage is the swarm's
// snapshot buffer (chokeSnaps) and choke scratch: a steady-state round
// performs no allocation.
func (p *Peer) runChokeRound() {
	if len(p.connList) == 0 {
		return
	}
	p.s.metrics.chokeRounds.Inc()
	s := p.s
	now := s.eng.Now()
	// Settle each connection's estimators before its row reads them, so
	// rate ordering reflects in-flight progress. A row reads only c and
	// c.mirror, which only these two settles write, so settling row by
	// row matches settling every connection first. Rate ages the
	// estimator, so every conn reads both rates, but only interested
	// ones get a row: the chokers read no other (see core.Choker).
	peers := s.chokeSnaps[:0]
	for _, c := range p.connList {
		rc := c.mirror
		p.settleDown(c)
		if !c.closed && rc.inFlow != nil {
			rc.owner.settleDown(rc)
		}
		down, up := c.inEst.Rate(now), c.outEst.Rate(now)
		if !rc.amInterested {
			continue
		}
		peers = append(peers, core.ChokePeer{
			ID:             c.remoteID,
			Interested:     true,
			Unchoked:       c.amUnchoking,
			DownloadRate:   down,
			UploadRate:     up,
			LastUnchoked:   c.lastUnchokedAt,
			UploadedTo:     c.outEst.Total(),
			DownloadedFrom: c.inEst.Total(),
			RemotePieces:   rc.owner.shownBits().Count(),
		})
	}
	s.chokeSnaps = peers
	choker := p.chokerL
	if p.seed || p.advLiar {
		// Liars pose as seeds, so they run the seed unchoke policy too.
		choker = p.chokerS
	}
	unchoke := choker.Round(now, peers, s.eng.RNG())
	for _, c := range p.connList {
		p.applyChoke(c, containsPeerID(unchoke, c.remoteID))
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

// applyChoke transitions one connection's choke state; the remote reads
// it through its mirror.
func (p *Peer) applyChoke(c *conn, unchoke bool) {
	if c.amUnchoking == unchoke {
		return
	}
	s := p.s
	now := s.eng.Now()
	c.amUnchoking = unchoke
	rc, r := c.mirror, c.mirror.owner
	if unchoke {
		c.lastUnchokedAt = now
		if p.isLocal {
			s.col.Unchoke(int(c.remoteID), now)
		}
		if !c.closed {
			r.maybeRequest(rc)
		}
		return
	}
	if p.isLocal {
		s.col.Choke(int(c.remoteID), now)
	}
	if c.closed {
		return
	}
	// Choking kills the remote's in-progress download from us; it keeps
	// its partial piece and re-requests elsewhere.
	if rc.inFlow != nil {
		r.cancelDownload(rc, true)
		r.retryRequests()
	} else if r.isLocal {
		// Requeue the local peer's pending requests even without a flow.
		r.req.OnPeerGone(p.id)
		r.retryRequests()
	}
}
