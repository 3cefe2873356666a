package swarm

// The swarm invariant checker: a debug hook (Config.Invariants) that
// cross-checks the simulator's redundant state and panics on the first
// violation, pointing at the exact peer and piece. Checks are pure reads
// and draw nothing from the engine RNG, so enabling them cannot perturb a
// trajectory — golden digests are identical with the checker on or off
// (pinned by a contract test).
//
// The per-sample check (full=false) keeps the steady-state cost bounded:
// the expensive availability cross-count runs for the instrumented local
// peer only, while the structural checks (no connection to a banned peer,
// mirror symmetry, stall/flow sanity, local Requester consistency) cover
// every live peer. Run's end-of-experiment sweep (full=true) extends the
// availability audit to the whole population and checks that every conn
// on the free list is zeroed.

import (
	"fmt"
	"sort"

	"rarestfirst/internal/core"
)

// checkInvariants audits the swarm; see the file comment for the
// full/sampled split. It panics on the first violation found.
func (s *Swarm) checkInvariants(full bool) {
	ids := make([]core.PeerID, 0, len(s.peers))
	for id := range s.peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := s.peers[id]
		if p.departed {
			continue
		}
		s.checkPeerStructure(p)
		if full || p.isLocal {
			s.checkPeerAvail(p)
		}
		if p.isLocal && p.req != nil {
			if err := p.req.CheckConsistency(); err != nil {
				panic(fmt.Sprintf("swarm invariant: local peer %d: %v", p.id, err))
			}
		}
	}
	if full {
		s.checkGlobalAvail(ids)
		// reclaimConns zeroes a conn before freeing it, so a free conn
		// holds no stamp and no reference to a peer or another conn.
		for i, c := range s.connFree {
			if c.gen != 0 || c.owner != nil || c.mirror != nil || c.closed || c.remoteID != 0 {
				panic(fmt.Sprintf("swarm invariant: free conn %d is not zeroed (gen %d)", i, c.gen))
			}
		}
	}
}

// checkGlobalAvail recounts the torrent-wide copy index from every live
// peer's TRUE bitfield and compares each piece. This is the counter the
// crash path decrements on kill and re-increments on rejoin, so the
// full sweep audits both edges of every crash/rejoin pair.
func (s *Swarm) checkGlobalAvail(ids []core.PeerID) {
	for i := 0; i < s.cfg.NumPieces; i++ {
		want := 0
		for _, id := range ids {
			p := s.peers[id]
			if !p.departed && p.have.Has(i) {
				want++
			}
		}
		if got := s.globalAvail.Count(i); got != want {
			panic(fmt.Sprintf("swarm invariant: global avail piece %d count %d, live peers hold %d",
				i, got, want))
		}
	}
}

// checkPeerStructure audits p's storage and connection list: the slab
// pieces cut to their length (connList at MaxPeerSet, bitfield words and
// copy counts exact, so no write can reach a block neighbour), each
// interrupted piece recorded once and still missing, every conn open and
// owned by p, its mirror pointing back with the same generation, the
// cached remote id, no duplicate remote, the banned-peer exclusion (a ban
// tears the connection down, so a surviving conn — and with it any
// unchoke slot — is a violation), and stall/flow bookkeeping. The
// remote's interest, unchoke and upload are read from the mirror, not
// copied, so there is no pair of them to compare.
func (s *Swarm) checkPeerStructure(p *Peer) {
	if cap(p.connList) != s.cfg.MaxPeerSet {
		panic(fmt.Sprintf("swarm invariant: peer %d connList capacity %d, want MaxPeerSet %d",
			p.id, cap(p.connList), s.cfg.MaxPeerSet))
	}
	if p.have.SpareWords() != 0 || p.inflight.SpareWords() != 0 || p.avail.SpareCounts() != 0 {
		panic(fmt.Sprintf("swarm invariant: peer %d storage overruns its slab piece (spare have %d, inflight %d, counts %d)",
			p.id, p.have.SpareWords(), p.inflight.SpareWords(), p.avail.SpareCounts()))
	}
	for i, pp := range p.pieceRemaining {
		if p.have.Has(int(pp.piece)) {
			panic(fmt.Sprintf("swarm invariant: peer %d keeps a remainder of piece %d it has", p.id, pp.piece))
		}
		for _, q := range p.pieceRemaining[:i] {
			if q.piece == pp.piece {
				panic(fmt.Sprintf("swarm invariant: peer %d keeps two remainders of piece %d", p.id, pp.piece))
			}
		}
	}
	for _, c := range p.connList {
		if c.closed || c.owner != p || c.gen == 0 {
			panic(fmt.Sprintf("swarm invariant: peer %d has a torn-down or free conn in its list (gen %d)",
				p.id, c.gen))
		}
		if c.mirror.mirror != c || c.mirror.gen != c.gen {
			panic(fmt.Sprintf("swarm invariant: peer %d conn to %d has inconsistent mirror",
				p.id, c.remoteID))
		}
		r := c.mirror.owner
		if c.remoteID != r.id {
			panic(fmt.Sprintf("swarm invariant: peer %d conn to %d caches remote id %d",
				p.id, r.id, c.remoteID))
		}
		if p.connTo(r) != c {
			panic(fmt.Sprintf("swarm invariant: peer %d has a second conn to %d",
				p.id, r.id))
		}
		if p.bannedPeer(r) {
			panic(fmt.Sprintf("swarm invariant: peer %d still connected to banned peer %d (unchoking=%v)",
				p.id, r.id, c.amUnchoking))
		}
		if c.stallPiece >= 0 {
			if c.inFlow != nil {
				panic(fmt.Sprintf("swarm invariant: peer %d conn to %d stalled on %d with active flow",
					p.id, c.remoteID, c.stallPiece))
			}
			if !p.isLocal && !p.inflight.Has(int(c.stallPiece)) {
				panic(fmt.Sprintf("swarm invariant: peer %d stall piece %d not marked in flight",
					p.id, c.stallPiece))
			}
		}
		if c.inFlow != nil && !p.isLocal && !p.inflight.Has(int(c.flowPiece)) {
			panic(fmt.Sprintf("swarm invariant: peer %d downloading piece %d without inflight mark",
				p.id, c.flowPiece))
		}
	}
}

// checkPeerAvail recounts p's availability index from its neighbours'
// ADVERTISED bitfields (what the bitfield/HAVE exchange shows, i.e. the
// full liarBits for liars) and compares every piece's count.
func (s *Swarm) checkPeerAvail(p *Peer) {
	for i := 0; i < s.cfg.NumPieces; i++ {
		want := 0
		for _, c := range p.connList {
			if c.mirror.owner.shownHas(i) {
				want++
			}
		}
		if got := p.avail.Count(i); got != want {
			panic(fmt.Sprintf("swarm invariant: peer %d piece %d avail count %d, neighbours show %d",
				p.id, i, got, want))
		}
	}
}
