package client

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/core"
	mrate "rarestfirst/internal/rate"
	"rarestfirst/internal/wire"
)

// lockedRand is a mutex-guarded rand.Rand: reader goroutines and the choke
// loop both draw from it.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// newLockedRand seeds from the option seed, or ambient time when zero.
func newLockedRand(seed int64) *lockedRand {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

// Rand returns a rand.Rand safe to use while holding the client lock only.
// Internally each call path uses it under c.mu, so a plain guard suffices.
func (l *lockedRand) Rand() *rand.Rand { return l.rng }

// peerConn is one live wire connection.
type peerConn struct {
	c          *Client
	id         core.PeerID
	conn       net.Conn
	remoteAddr string
	peerID     [20]byte
	dialer     [20]byte // peer ID of the side that dialed

	wmu sync.Mutex
	enc *wire.Encoder

	// Guarded by c.mu.
	haveBits       *bitfield.Bitfield
	amInterested   bool
	peerInterested bool
	amUnchoking    bool
	peerUnchoking  bool
	lastUnchokedAt float64
	inEst          mrate.Estimator // also counts the bytes received
	outEst         mrate.Estimator // also counts the bytes sent

	// Request-timeout accounting, guarded by c.mu; pending is only
	// populated when Options.RequestTimeout is positive.
	pending map[core.BlockRef]time.Time
	faults  int
	snubbed bool

	// Byzantine-defense accounting, guarded by c.mu. poisonStrikes counts
	// hash-failed pieces this peer contributed blocks to; chokedReqs
	// counts requests we could not serve (choked or for pieces we lack)
	// since the peer's last served request — flooders accrue these
	// without bound, honest peers reset on every served block.
	poisonStrikes int
	chokedReqs    int
}

// floodAbuseLimit is the unservable-request count at which a connection
// is treated as a request flood and closed. Honest clients stop
// requesting when choked, so they accrue at most a pipeline's worth of
// racing requests per choke transition and reset on the next served
// block; a flooder ignores choke state and crosses the limit quickly.
const floodAbuseLimit = 64

// send serialises one message to the peer; errors (including a 30-second
// write stall, which breaks mutual-write deadlocks on full TCP buffers)
// close the connection and the reader loop cleans up.
func (pc *peerConn) send(fn func(*wire.Encoder) error) {
	pc.wmu.Lock()
	pc.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	err := fn(pc.enc)
	pc.wmu.Unlock()
	if err != nil {
		pc.conn.Close()
	}
}

// handleConn performs the handshake and runs the reader loop until the
// connection dies. outgoing reports whether we dialed.
func (c *Client) handleConn(conn net.Conn, outgoing bool) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	hs := wire.Handshake{InfoHash: c.meta.InfoHash(), PeerID: c.peerID}
	if outgoing {
		if err := wire.WriteHandshake(conn, hs); err != nil {
			return
		}
	}
	remote, err := wire.ReadHandshake(conn)
	if err != nil || remote.InfoHash != c.meta.InfoHash() || remote.PeerID == c.peerID {
		return
	}

	pc := &peerConn{
		c:          c,
		conn:       conn,
		remoteAddr: conn.RemoteAddr().String(),
		peerID:     remote.PeerID,
		dialer:     remote.PeerID,
		enc:        wire.NewEncoder(conn),
	}
	if outgoing {
		pc.dialer = c.peerID
	}
	c.mu.Lock()
	// A banned peer ID is refused in either direction, checked in the
	// same locked section that registers the connection so a ban cannot
	// land in between.
	if c.closed || banActive(c.bannedIDs, remote.PeerID) {
		c.mu.Unlock()
		return
	}
	// One connection per peer ID, as in the sim (connectedTo). Of two,
	// the one whose dialer has the smaller peer ID stays: both ends see
	// the same two dialers, so a simultaneous dial leaves one connection.
	// A second connection from the same dialer replaces the first, which
	// that dialer has given up on (a restart, a half-open socket). Every
	// other registered connection to this ID is thereby closed, and its
	// reader loop unregisters it.
	for _, other := range c.connOrder {
		if other.peerID != remote.PeerID {
			continue
		}
		if bytes.Compare(other.dialer[:], pc.dialer[:]) < 0 {
			c.mu.Unlock()
			return
		}
		other.conn.Close()
	}
	pc.id = c.nextConn
	c.nextConn++
	c.conns[pc.id] = pc
	c.connOrder = append(c.connOrder, pc)
	myBits := c.req.Have().ToWire()
	empty := c.req.Have().Empty()
	if c.adv != nil && c.adv.FakeHaves() {
		// Bitfield liar: advertise every piece regardless of content.
		full := bitfield.New(c.geo.NumPieces)
		full.SetAll()
		myBits = full.ToWire()
		empty = false
	}
	if !outgoing {
		// An inbound connection is registered before our handshake goes
		// out, so a dialer that has read it finds this connection here
		// (a second dial from it is then the newer one at both ends).
		// Sends wait on wmu until the handshake is written.
		pc.wmu.Lock()
	}
	c.mu.Unlock()
	c.om.conns.Add(1)
	c.tr.peerJoined(pc.id)
	defer c.dropConn(pc)
	if !outgoing {
		err := wire.WriteHandshake(conn, hs)
		pc.wmu.Unlock()
		if err != nil {
			return
		}
	}
	conn.SetDeadline(time.Time{})

	// Initial bitfield (skipped when empty, as real clients do).
	if !empty {
		pc.send(func(e *wire.Encoder) error { return e.Bitfield(myBits) })
	}

	dec := wire.NewDecoder(conn)
	var msg wire.Message
	for {
		if err := dec.Decode(&msg); err != nil {
			return
		}
		if !c.handleMessage(pc, &msg) {
			return
		}
	}
}

// handleMessage dispatches one wire message; it returns false to drop the
// connection.
func (c *Client) handleMessage(pc *peerConn, m *wire.Message) bool {
	switch m.ID {
	case wire.MsgKeepAlive:
		return true
	case wire.MsgBitfield:
		bf, err := bitfield.FromWire(m.Raw, c.geo.NumPieces)
		if err != nil {
			return false
		}
		c.mu.Lock()
		if pc.haveBits != nil {
			c.mu.Unlock()
			return false // duplicate bitfield is a protocol error
		}
		pc.haveBits = bf
		c.avail.AddPeer(bf)
		c.updateInterestLocked(pc)
		seed := bf.Complete()
		c.mu.Unlock()
		// Report seed status in both directions: the collector no-ops on
		// unchanged state, and a crashed ex-seed that rejoins holding a
		// partial bitfield must un-latch its seed classification.
		c.tr.remoteSeedStatus(pc.id, seed)
		return true
	case wire.MsgHave:
		idx := int(m.Index)
		if idx < 0 || idx >= c.geo.NumPieces {
			return false
		}
		c.mu.Lock()
		if pc.haveBits == nil {
			pc.haveBits = bitfield.New(c.geo.NumPieces)
			c.avail.AddPeer(pc.haveBits)
		}
		if pc.haveBits.Set(idx) {
			c.avail.Inc(idx)
		}
		c.updateInterestLocked(pc)
		refill := pc.peerUnchoking && pc.amInterested
		seed := pc.haveBits.Complete()
		c.mu.Unlock()
		c.tr.countMsg("have_received")
		if seed {
			c.tr.remoteSeedStatus(pc.id, true)
		}
		if refill {
			c.fillPipeline(pc)
		}
		return true
	case wire.MsgInterested:
		c.mu.Lock()
		pc.peerInterested = true
		c.mu.Unlock()
		c.tr.remoteInterest(pc.id, true)
		return true
	case wire.MsgNotInterested:
		c.mu.Lock()
		pc.peerInterested = false
		c.mu.Unlock()
		c.tr.remoteInterest(pc.id, false)
		return true
	case wire.MsgUnchoke:
		c.mu.Lock()
		pc.peerUnchoking = true
		c.mu.Unlock()
		c.fillPipeline(pc)
		return true
	case wire.MsgChoke:
		c.mu.Lock()
		pc.peerUnchoking = false
		pc.pending = nil
		c.req.OnPeerGone(pc.id) // requeue pending blocks for other peers
		c.mu.Unlock()
		return true
	case wire.MsgRequest:
		return c.handleRequest(pc, m)
	case wire.MsgPiece:
		return c.handlePiece(pc, m)
	case wire.MsgCancel, wire.MsgPort:
		// Cancels are advisory — our serve path is synchronous, so there
		// is no queue to cancel from. Port (DHT) is ignored.
		return true
	default:
		return false
	}
}

// updateInterestLocked recomputes our interest in pc and sends the
// transition message. Caller holds c.mu; the send is deferred to avoid
// writing while locked.
func (c *Client) updateInterestLocked(pc *peerConn) {
	want := pc.haveBits != nil && c.req.Interested(pc.haveBits)
	if want == pc.amInterested {
		return
	}
	pc.amInterested = want
	c.tr.localInterest(pc.id, want)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		pc.send(func(e *wire.Encoder) error {
			if want {
				return e.Simple(wire.MsgInterested)
			}
			return e.Simple(wire.MsgNotInterested)
		})
	}()
}

// fillPipeline tops the request pipeline to pc up to PipelineDepth.
func (c *Client) fillPipeline(pc *peerConn) {
	for {
		c.mu.Lock()
		if !pc.peerUnchoking || !pc.amInterested || pc.haveBits == nil ||
			c.req.Pending(pc.id) >= PipelineDepth || c.req.Complete() {
			c.mu.Unlock()
			return
		}
		ref, ok := c.req.Next(c.rng.Rand(), pc.id, pc.haveBits)
		if !ok {
			c.mu.Unlock()
			return
		}
		if c.reqTimeout > 0 {
			if pc.pending == nil {
				pc.pending = map[core.BlockRef]time.Time{}
			}
			pc.pending[ref] = time.Now()
		}
		length := c.geo.BlockSize(ref.Piece, ref.Block)
		c.mu.Unlock()
		pc.send(func(e *wire.Encoder) error {
			return e.Request(uint32(ref.Piece), uint32(ref.Block*16<<10), uint32(length))
		})
	}
}

// handleRequest serves one block, honouring the choke state and the global
// upload rate cap.
func (c *Client) handleRequest(pc *peerConn, m *wire.Message) bool {
	idx, begin, length := int(m.Index), int(m.Begin), int(m.Length)
	if idx < 0 || idx >= c.geo.NumPieces || length <= 0 || length > 128<<10 {
		return false
	}
	if begin < 0 {
		return false
	}
	c.mu.Lock()
	if !c.req.Have().Has(idx) || !pc.amUnchoking {
		// Requests for pieces we lack, or sent while choked (a race right
		// after a choke transition), are silently dropped as in mainline —
		// but tallied: a flooder ignores choke state, so its unservable
		// requests accrue without bound and cross floodAbuseLimit.
		pc.chokedReqs++
		flood := pc.chokedReqs >= floodAbuseLimit
		if flood {
			c.banLocked(pc)
		}
		c.mu.Unlock()
		if flood {
			c.fault("request_flood")
			pc.conn.Close()
			return false
		}
		return true
	}
	pc.chokedReqs = 0
	if begin+length > c.geo.PieceSize(idx) {
		c.mu.Unlock()
		return false
	}
	// Serve straight from storage, without a copy: once a piece is in
	// Have its range of c.content is never written again. handlePiece
	// drops blocks of owned pieces, and a hash failure clears a piece
	// from Have in the same locked section that set it, so no request
	// ever sees it. block may therefore be read after unlocking.
	start := int64(idx)*int64(c.geo.PieceLength) + int64(begin)
	block := c.content[start : start+int64(length)]
	c.mu.Unlock()
	if c.adv != nil {
		// Piece poisoner: corrupt the outbound copy (never our own
		// storage) at the model's seeded rate.
		block = append([]byte(nil), block...)
		c.adv.MaybePoison(block)
	}

	// Global upload cap: one token per byte.
	c.bucketMu.Lock()
	wait := c.bucket.Take(c.now(), length)
	c.bucketMu.Unlock()
	if wait > 0 {
		select {
		case <-c.stopCh:
			return false
		case <-time.After(time.Duration(wait * float64(time.Second))):
		}
	}
	pc.send(func(e *wire.Encoder) error { return e.Piece(uint32(idx), uint32(begin), block) })
	now := c.now()
	c.mu.Lock()
	pc.outEst.Update(now, int64(length))
	c.uploaded += int64(length)
	c.mu.Unlock()
	c.tr.uploaded(pc.id, int64(length))
	return true
}

// handlePiece ingests one received block.
func (c *Client) handlePiece(pc *peerConn, m *wire.Message) bool {
	idx, begin := int(m.Index), int(m.Begin)
	blockSize := 16 << 10
	if idx < 0 || idx >= c.geo.NumPieces || begin%blockSize != 0 {
		return false
	}
	blk := begin / blockSize
	if blk < 0 || blk >= c.geo.BlocksIn(idx) || len(m.Block) != c.geo.BlockSize(idx, blk) {
		return false
	}
	now := c.now()
	ref := core.BlockRef{Piece: idx, Block: blk}

	c.mu.Lock()
	if c.req.Have().Has(idx) {
		c.mu.Unlock()
		return true // stale end-game duplicate
	}
	start := int64(idx)*int64(c.geo.PieceLength) + int64(begin)
	copy(c.content[start:], m.Block)
	pc.inEst.Update(now, int64(len(m.Block)))
	c.downloaded += int64(len(m.Block))
	done, cancels := c.req.OnBlock(pc.id, ref)
	delete(pc.pending, ref)
	endgameEntered := false
	if c.req.InEndGame() && !c.endgameMarked {
		c.endgameMarked = true
		endgameEntered = true
	}
	var verifiedPiece = -1
	var completed, hashFailed bool
	var wastedBytes int
	var poisonBanned []*peerConn
	if done {
		if c.meta.VerifyPiece(idx, c.pieceData(idx)) {
			verifiedPiece = idx
			completed = c.req.Complete()
			if completed {
				c.seeding = true
			}
		} else {
			// Hash failure: blame the peers that supplied blocks of this
			// piece before the requester forgets them, then revert
			// acceptance and re-download.
			hashFailed = true
			wastedBytes = c.geo.PieceSize(idx)
			suppliers := c.req.PieceSuppliers(idx)
			c.req.OnPieceHashFail(idx)
			poisonBanned = c.poisonSuspectsLocked(suppliers)
		}
	}
	// Map cancels to conns while locked.
	type cancelMsg struct {
		pc                   *peerConn
		piece, begin, length uint32
	}
	var cmsgs []cancelMsg
	for _, cb := range cancels {
		if other := c.conns[cb.Peer]; other != nil {
			delete(other.pending, cb.Ref) // cancelled, so never times out
			cmsgs = append(cmsgs, cancelMsg{
				pc:     other,
				piece:  uint32(cb.Ref.Piece),
				begin:  uint32(cb.Ref.Block * blockSize),
				length: uint32(c.geo.BlockSize(cb.Ref.Piece, cb.Ref.Block)),
			})
		}
	}
	interestRefresh := verifiedPiece >= 0
	c.mu.Unlock()

	c.tr.downloaded(pc.id, int64(len(m.Block)))
	c.tr.blockReceived()
	if endgameEntered {
		c.tr.markEvent("end_game")
	}
	if verifiedPiece >= 0 {
		c.om.pieces.Inc()
		c.tr.pieceCompleted(verifiedPiece)
		if c.resume != nil {
			// Persist outside c.mu: a verified piece's content range is
			// immutable from here on (later blocks for it are rejected as
			// stale duplicates), so the read races nothing. A write error
			// other than the shutdown race is surfaced as a fault; the
			// download itself continues — resume state is best-effort.
			if err := c.resume.persistPiece(verifiedPiece, c.pieceData(verifiedPiece)); err != nil && !errors.Is(err, errResumeClosed) {
				c.fault("resume_write_fail")
			}
		}
	}
	if completed {
		c.tr.localSeed()
	}
	for _, cm := range cmsgs {
		cm.pc.send(func(e *wire.Encoder) error { return e.Cancel(cm.piece, cm.begin, cm.length) })
	}
	if hashFailed {
		c.fault("piece_hash_fail")
		c.faultN("wasted_bytes", wastedBytes)
		// Close banned contributors outside the lock; their dropConn
		// requeues whatever they still had pending.
		for _, bp := range poisonBanned {
			c.fault("peer_banned_poison")
			bp.conn.Close()
		}
		// The failed piece is requestable again: top up every surviving
		// pipeline so the re-download starts elsewhere right away.
		c.refreshAllInterest()
	}
	if verifiedPiece >= 0 {
		c.broadcastHave(verifiedPiece)
		if interestRefresh {
			c.refreshAllInterest()
		}
		if completed && c.onComplete != nil {
			c.onComplete()
			c.onComplete = nil
		}
	}
	c.fillPipeline(pc)
	return true
}

// refreshAllInterest re-evaluates interest in every peer after we gained a
// piece (interest can only drop) and tops up pipelines.
func (c *Client) refreshAllInterest() {
	c.mu.Lock()
	conns := append([]*peerConn(nil), c.connOrder...)
	for _, pc := range conns {
		c.updateInterestLocked(pc)
	}
	c.mu.Unlock()
	for _, pc := range conns {
		c.fillPipeline(pc)
	}
}
