package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/metainfo"
)

// PoisonStrikes is the hash-failure strike count at which a peer that
// contributed blocks to corrupt pieces is banned. A sole contributor of a
// failed piece is banned on its first strike regardless. The simulator and
// the TCP client both apply it.
const PoisonStrikes = 2

// PeerID identifies a remote peer within a Requester or Choker. IDs are
// assigned by the embedding layer (simulator or real client).
type PeerID int32

// BlockRef names one block of one piece.
type BlockRef struct {
	Piece int
	Block int
}

// PeerBlock pairs a pending block with the peer it was requested from; it
// is the unit of end-game cancel messages.
type PeerBlock struct {
	Peer PeerID
	Ref  BlockRef
}

// pieceProgress tracks block state for a piece being downloaded.
type pieceProgress struct {
	requested []bool
	received  []bool
	// holders counts, per block, the peers it is pending on: at most one
	// outside end game, so OnBlock scans the pending sets for duplicate
	// copies to cancel only when a block's count stays above zero.
	holders   []int32
	nReceived int
	nRequest  int
}

// Requester turns a piece-level Picker into block-level request decisions,
// implementing the two block-level policies of §II-C.1:
//
//   - strict priority: once a block of a piece is requested, remaining
//     blocks of that piece are requested before any new piece is started;
//   - end game mode: once every block is received or requested, missing
//     blocks are requested from every peer that has them, with cancels sent
//     when a copy arrives.
//
// The Requester owns the local Have/InFlight bitfields and per-peer pending
// sets. It is not safe for concurrent use; embed it in a single goroutine
// or lock externally.
type Requester struct {
	geo      metainfo.Geometry
	picker   Picker
	have     *bitfield.Bitfield
	inflight *bitfield.Bitfield
	progress map[int]*pieceProgress
	// order lists in-flight pieces oldest first so strict-priority scans
	// are deterministic (map iteration order must not leak into runs).
	order   []int
	pending map[PeerID]map[BlockRef]struct{}
	// suppliers records, per piece, which peers delivered counted blocks.
	// Unlike progress it survives piece completion, so the client can
	// attribute blame when the assembled bytes fail verification.
	suppliers map[int][]PeerID
	endgame   bool
	// downloaded counts pieces completed; drives random-first.
	downloaded int
	// pick is the PickState scratch reused across Next calls so the
	// picker invocation does not allocate.
	pick PickState
}

// NewRequester returns a Requester over the given geometry using picker.
func NewRequester(geo metainfo.Geometry, picker Picker) *Requester {
	return &Requester{
		geo:       geo,
		picker:    picker,
		have:      bitfield.New(geo.NumPieces),
		inflight:  bitfield.New(geo.NumPieces),
		progress:  map[int]*pieceProgress{},
		pending:   map[PeerID]map[BlockRef]struct{}{},
		suppliers: map[int][]PeerID{},
	}
}

// Have returns the local completed-piece bitfield (live view; do not mutate).
func (r *Requester) Have() *bitfield.Bitfield { return r.have }

// Downloaded returns the number of completed pieces.
func (r *Requester) Downloaded() int { return r.downloaded }

// Complete reports whether every piece is done.
func (r *Requester) Complete() bool { return r.have.Complete() }

// InEndGame reports whether end game mode has been entered.
func (r *Requester) InEndGame() bool { return r.endgame }

// Pending returns the number of outstanding requests to peer.
func (r *Requester) Pending(peer PeerID) int { return len(r.pending[peer]) }

// AddHave marks piece i as already owned without downloading (initial seed
// bootstrap). It must not be called after requests start for that piece.
func (r *Requester) AddHave(i int) {
	if r.have.Set(i) {
		r.downloaded++
	}
}

// RestoreFromBitfield bulk-marks every piece set in bf as already owned:
// the resume path for a restarted peer, which re-enters the swarm wanting
// only what it lacks. The bitfield must match the torrent geometry and the
// Requester must be fresh — no requests started, no end game entered — so
// restored pieces can never collide with in-flight block state. The caller
// is responsible for having re-verified the pieces it claims (the client
// re-hashes on load; see internal/client resume).
func (r *Requester) RestoreFromBitfield(bf *bitfield.Bitfield) error {
	if bf == nil {
		return nil
	}
	if bf.Len() != r.geo.NumPieces {
		return fmt.Errorf("core: restore bitfield covers %d pieces, torrent has %d", bf.Len(), r.geo.NumPieces)
	}
	if len(r.progress) != 0 || len(r.pending) != 0 || r.endgame {
		return fmt.Errorf("core: RestoreFromBitfield called after requests started")
	}
	bf.Range(func(i int) bool {
		r.AddHave(i)
		return true
	})
	return nil
}

// Interested reports whether the local peer should be interested in a
// remote advertising the given bitfield: the remote has a piece we lack.
func (r *Requester) Interested(remote *bitfield.Bitfield) bool {
	return r.have.AnyMissingIn(remote)
}

// Next chooses the next block to request from peer, which advertises
// remote. It records the request as pending and returns ok=false when there
// is nothing to ask this peer for.
func (r *Requester) Next(rng *rand.Rand, peer PeerID, remote *bitfield.Bitfield) (ref BlockRef, ok bool) {
	if r.have.Complete() {
		return BlockRef{}, false
	}
	if r.endgame {
		return r.nextEndGame(rng, peer, remote)
	}
	// Strict priority: finish partially requested pieces first, oldest
	// piece first.
	for _, i := range r.order {
		if !remote.Has(i) {
			continue
		}
		p := r.progress[i]
		if b := firstUnrequested(p); b >= 0 {
			return r.commit(peer, BlockRef{Piece: i, Block: b}), true
		}
	}
	// Start a new piece via the piece selection strategy.
	r.pick = PickState{Have: r.have, InFlight: r.inflight, Remote: remote, Downloaded: r.downloaded}
	piece := r.picker.Pick(rng, &r.pick)
	if piece >= 0 {
		r.startPiece(piece)
		return r.commit(peer, BlockRef{Piece: piece, Block: 0}), true
	}
	// Nothing unrequested anywhere: if blocks are still missing, enter end
	// game mode ("this mode starts once a peer has requested all blocks").
	if r.allBlocksRequested() {
		r.endgame = true
		return r.nextEndGame(rng, peer, remote)
	}
	return BlockRef{}, false
}

// nextEndGame picks a missing block the remote has that this peer is not
// already fetching, uniformly at random. Iteration is in ascending piece
// order so the reservoir draw is deterministic given the rng.
func (r *Requester) nextEndGame(rng *rand.Rand, peer PeerID, remote *bitfield.Bitfield) (BlockRef, bool) {
	chosen, seen := BlockRef{}, 0
	r.have.Missing(func(i int) bool {
		if !remote.Has(i) {
			return true
		}
		if p := r.progress[i]; p != nil {
			for b := range p.received {
				if p.received[b] {
					continue
				}
				ref := BlockRef{Piece: i, Block: b}
				if _, dup := r.pending[peer][ref]; dup {
					continue
				}
				seen++
				if rng.Intn(seen) == 0 {
					chosen = ref
				}
			}
			return true
		}
		// Piece never started (possible after a requeue).
		ref := BlockRef{Piece: i, Block: 0}
		if _, dup := r.pending[peer][ref]; !dup {
			seen++
			if rng.Intn(seen) == 0 {
				chosen = ref
			}
		}
		return true
	})
	if seen == 0 {
		return BlockRef{}, false
	}
	if r.progress[chosen.Piece] == nil {
		r.startPiece(chosen.Piece)
	}
	return r.commit(peer, chosen), true
}

// startPiece allocates block state for piece i and marks it in flight.
func (r *Requester) startPiece(i int) {
	nb := r.geo.BlocksIn(i)
	flags := make([]bool, 2*nb) // requested and received share one allocation
	r.progress[i] = &pieceProgress{requested: flags[:nb:nb], received: flags[nb:], holders: make([]int32, nb)}
	r.inflight.Set(i)
	r.order = append(r.order, i)
	delete(r.suppliers, i)
}

// dropPiece removes piece i from the in-flight bookkeeping.
func (r *Requester) dropPiece(i int) {
	delete(r.progress, i)
	r.inflight.Clear(i)
	for k, p := range r.order {
		if p == i {
			r.order = append(r.order[:k], r.order[k+1:]...)
			break
		}
	}
}

func (r *Requester) commit(peer PeerID, ref BlockRef) BlockRef {
	p := r.progress[ref.Piece]
	if !p.requested[ref.Block] {
		p.requested[ref.Block] = true
		p.nRequest++
	}
	refs := r.pending[peer]
	if refs == nil {
		refs = map[BlockRef]struct{}{}
		r.pending[peer] = refs
	}
	refs[ref] = struct{}{}
	p.holders[ref.Block]++
	return ref
}

func firstUnrequested(p *pieceProgress) int {
	for b, req := range p.requested {
		if !req {
			return b
		}
	}
	return -1
}

func (r *Requester) allBlocksRequested() bool {
	ok := true
	r.have.Missing(func(i int) bool {
		p := r.progress[i]
		if p == nil || firstUnrequested(p) >= 0 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// OnBlock records receipt of ref from peer. It returns whether the piece
// completed with this block and, in end game mode, the pending duplicate
// requests that should now be cancelled.
func (r *Requester) OnBlock(peer PeerID, ref BlockRef) (pieceDone bool, cancels []PeerBlock) {
	p := r.progress[ref.Piece]
	if p == nil || p.received[ref.Block] {
		// Duplicate or stale delivery (possible in end game); ignore.
		r.forget(peer, ref)
		return false, nil
	}
	p.received[ref.Block] = true
	p.nReceived++
	if !p.requested[ref.Block] {
		// An unsolicited block: mark it requested too, so strict priority
		// never asks for a block already held.
		p.requested[ref.Block] = true
		p.nRequest++
	}
	r.noteSupplier(peer, ref.Piece)
	r.forget(peer, ref)
	// Cancel every other pending copy of this block (end game only), in
	// peer order so the caller's reaction sequence is deterministic.
	if p.holders[ref.Block] > 0 {
		for other, refs := range r.pending {
			if _, ok := refs[ref]; ok {
				cancels = append(cancels, PeerBlock{Peer: other, Ref: ref})
				delete(refs, ref)
			}
		}
		slices.SortFunc(cancels, func(a, b PeerBlock) int { return cmp.Compare(a.Peer, b.Peer) })
		p.holders[ref.Block] = 0
	}
	if p.nReceived == len(p.received) {
		r.dropPiece(ref.Piece)
		r.have.Set(ref.Piece)
		r.downloaded++
		return true, cancels
	}
	return false, cancels
}

// OnPieceHashFail reverts acceptance of piece i after its assembled bytes
// failed SHA-1 verification: the piece becomes missing and downloadable
// again (real client path; the simulator transfers symbolically and never
// corrupts).
func (r *Requester) OnPieceHashFail(i int) {
	if !r.have.Has(i) {
		return
	}
	r.have.Clear(i)
	r.downloaded--
	r.OnPieceFailed(i)
}

// noteSupplier records that peer delivered a counted block of piece i.
// The list is small (a piece usually has one supplier; end game adds a
// few), so a linear dedup scan beats a map.
func (r *Requester) noteSupplier(peer PeerID, i int) {
	for _, p := range r.suppliers[i] {
		if p == peer {
			return
		}
	}
	r.suppliers[i] = append(r.suppliers[i], peer)
}

// PieceSuppliers returns the peers that delivered counted blocks of piece
// i, sorted by id. Call it before OnPieceHashFail — the failure path
// clears the record so the re-download starts with a clean slate.
func (r *Requester) PieceSuppliers(i int) []PeerID {
	src := r.suppliers[i]
	if len(src) == 0 {
		return nil
	}
	out := slices.Clone(src)
	slices.Sort(out)
	return out
}

// OnPieceFailed resets all block state for piece i after a hash failure so
// it will be downloaded again (real client path).
func (r *Requester) OnPieceFailed(i int) {
	if r.have.Has(i) {
		panic(fmt.Sprintf("core: piece %d failed after acceptance", i))
	}
	r.dropPiece(i)
	delete(r.suppliers, i)
	for _, refs := range r.pending {
		for ref := range refs {
			if ref.Piece == i {
				delete(refs, ref)
			}
		}
	}
}

// OnPeerGone requeues every block pending on peer (the peer choked us,
// disconnected, or left the peer set). Blocks with no other pending copy
// become requestable again.
func (r *Requester) OnPeerGone(peer PeerID) {
	for ref := range r.pending[peer] {
		r.dropHolder(ref)
	}
	delete(r.pending, peer)
}

// OnRequestTimeout requeues one block pending on peer that the peer never
// delivered (the client's request-timeout scanner). Unlike OnPeerGone the
// peer keeps its other pending blocks; like it, a block with no remaining
// pending copy becomes requestable again. A ref not actually pending on
// peer (late delivery raced the scan) is a no-op.
func (r *Requester) OnRequestTimeout(peer PeerID, ref BlockRef) {
	refs := r.pending[peer]
	if _, ok := refs[ref]; !ok {
		return
	}
	delete(refs, ref)
	r.dropHolder(ref)
}

// forget drops ref from peer's pending set, if it is there.
func (r *Requester) forget(peer PeerID, ref BlockRef) {
	refs := r.pending[peer]
	if _, ok := refs[ref]; ok {
		delete(refs, ref)
		r.dropHolder(ref)
	}
}

// dropHolder decrements the holder count of a ref just removed from one
// pending set. A block left with no pending copy and not yet received
// becomes requestable again, and a piece with nothing received or
// requested is dropped so the picker may choose afresh.
func (r *Requester) dropHolder(ref BlockRef) {
	p := r.progress[ref.Piece]
	if p == nil {
		return
	}
	p.holders[ref.Block]--
	if p.holders[ref.Block] > 0 || p.received[ref.Block] {
		return
	}
	p.requested[ref.Block] = false
	p.nRequest--
	if p.nReceived == 0 && p.nRequest == 0 {
		r.dropPiece(ref.Piece)
	}
}

// CheckConsistency cross-checks the Requester's redundant bookkeeping
// (bitfields, progress maps, order list, pending sets, holder counts) and
// returns the first violation found, or nil. It is a pure read intended
// for the swarm invariant checker and tests; it never mutates state.
func (r *Requester) CheckConsistency() error {
	if got := r.have.Count(); got != r.downloaded {
		return fmt.Errorf("core: downloaded=%d but have.Count()=%d", r.downloaded, got)
	}
	for i := 0; i < r.geo.NumPieces; i++ {
		inProg := r.progress[i] != nil
		if r.have.Has(i) && r.inflight.Has(i) {
			return fmt.Errorf("core: piece %d both have and inflight", i)
		}
		if inProg != r.inflight.Has(i) {
			return fmt.Errorf("core: piece %d progress=%v inflight=%v", i, inProg, r.inflight.Has(i))
		}
	}
	if len(r.order) != len(r.progress) {
		return fmt.Errorf("core: order len %d != progress len %d", len(r.order), len(r.progress))
	}
	for _, i := range r.order {
		p := r.progress[i]
		if p == nil {
			return fmt.Errorf("core: order lists piece %d with no progress", i)
		}
		nReq, nRecv := 0, 0
		for b := range p.requested {
			if p.requested[b] {
				nReq++
			}
			if p.received[b] {
				nRecv++
				if !p.requested[b] {
					return fmt.Errorf("core: piece %d block %d received but not requested", i, b)
				}
			}
		}
		if nReq != p.nRequest || nRecv != p.nReceived {
			return fmt.Errorf("core: piece %d counters req=%d/%d recv=%d/%d", i, p.nRequest, nReq, p.nReceived, nRecv)
		}
	}
	held := map[BlockRef]int32{}
	for peer, refs := range r.pending {
		for ref := range refs {
			held[ref]++
			p := r.progress[ref.Piece]
			if p == nil {
				return fmt.Errorf("core: pending %v on peer %d for piece with no progress", ref, peer)
			}
			if !p.requested[ref.Block] || p.received[ref.Block] {
				return fmt.Errorf("core: pending %v on peer %d but requested=%v received=%v",
					ref, peer, p.requested[ref.Block], p.received[ref.Block])
			}
		}
	}
	for _, i := range r.order {
		for b, n := range r.progress[i].holders {
			if ref := (BlockRef{Piece: i, Block: b}); n != held[ref] {
				return fmt.Errorf("core: %v holder count %d but pending on %d peers", ref, n, held[ref])
			}
		}
	}
	return nil
}
