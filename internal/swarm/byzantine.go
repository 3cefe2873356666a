package swarm

// Byzantine-peer detection and response: the sim twin of the real
// client's block-provenance / poisoner-banning machinery (see
// internal/client). Victims attribute hash failures to the peers that
// supplied the piece, strike or ban them, and refuse future connections;
// fake-HAVE stalls time out, strike the liar, and free the piece. All of
// it is gated on Config.Adversary — with a nil plan none of these paths
// run and no engine RNG draw happens, so golden trajectories are
// untouched.

import "rarestfirst/internal/core"

// banPeer permanently bans suspect from victim's peer set and tears down
// any live connection between them (so a banned peer can never hold an
// unchoke slot). Idempotent; faultKind names the counted ban fault.
func (s *Swarm) banPeer(victim, suspect *Peer, faultKind string) {
	if victim.bannedPeer(suspect) {
		return
	}
	if victim.banned == nil {
		victim.banned = make(map[core.PeerID]struct{})
	}
	victim.banned[suspect.id] = struct{}{}
	s.fault(faultKind, 1, victim, suspect)
	if victim.connectedTo(suspect) {
		s.disconnect(victim, suspect)
	}
}

// strikePeer accrues one detection against suspect on victim's ledger and
// bans at core.PoisonStrikes. No-op in NoBan measurement mode.
func (s *Swarm) strikePeer(victim, suspect *Peer, faultKind string) {
	adv := s.cfg.Adversary
	if adv == nil || adv.NoBan {
		return
	}
	if victim.strikes == nil {
		victim.strikes = make(map[core.PeerID]int)
	}
	victim.strikes[suspect.id]++
	if victim.strikes[suspect.id] >= core.PoisonStrikes {
		s.banPeer(victim, suspect, faultKind)
	}
}

// poisonDetected handles a failed hash check on victim's piece download
// from supplier (remote piece-granularity path, where the supplier is
// unambiguous): the wasted bytes are counted and the poisoner is banned
// outright unless NoBan measurement mode only tallies the damage.
func (s *Swarm) poisonDetected(victim, supplier *Peer, piece int) {
	s.fault("piece_hash_fail", 1, victim, supplier)
	s.fault("wasted_bytes", s.geo.PieceSize(piece), victim, supplier)
	if adv := s.cfg.Adversary; adv != nil && !adv.NoBan {
		s.banPeer(victim, supplier, "peer_banned_poison")
	}
}

// localPoisonDetected is the local peer's block-granularity counterpart:
// the assembled piece failed its hash check and suspicion lands on the
// recorded suppliers — a sole contributor is banned immediately, mixed
// contributors each take a strike (end game spreads blocks over peers).
func (s *Swarm) localPoisonDetected(victim *Peer, suppliers []core.PeerID, piece int) {
	s.fault("piece_hash_fail", 1, victim, nil)
	s.fault("wasted_bytes", s.geo.PieceSize(piece), victim, nil)
	adv := s.cfg.Adversary
	if adv == nil || adv.NoBan {
		return
	}
	sole := len(suppliers) == 1
	for _, id := range suppliers {
		suspect := s.peers[id]
		if suspect == nil {
			continue
		}
		if sole {
			s.banPeer(victim, suspect, "peer_banned_poison")
		} else {
			s.strikePeer(victim, suspect, "peer_banned_poison")
		}
	}
}

// scheduleFakeHaveTimeout arms the stall timer for a request issued on
// the strength of a fake HAVE. At fire time — unless the stall already
// resolved (disconnect or ban tore the conn down, or a choke requeued the
// local peer's ref) — the victim frees the piece, strikes the liar (snub
// semantics, mirroring the live client's timeout path) and retries on the
// surviving connections.
func (s *Swarm) scheduleFakeHaveTimeout(p *Peer, c *conn, piece int) {
	liar, gen := c.mirror.owner, c.gen
	s.eng.After(fakeHaveTimeout, func() {
		if p.departed || p.connTo(liar) != c || c.gen != gen || int(c.stallPiece) != piece {
			return
		}
		c.stallPiece = -1
		if p.isLocal {
			p.req.OnRequestTimeout(liar.id, core.BlockRef{Piece: piece, Block: int(c.flowBlock)})
		} else {
			p.inflight.Clear(piece)
		}
		s.fault("fake_have_timeout", 1, p, liar)
		s.strikePeer(p, liar, "peer_snubbed")
		p.retryRequests()
	})
}
