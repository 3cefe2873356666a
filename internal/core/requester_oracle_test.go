package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/metainfo"
)

// oracleRequester is the map-of-sets Requester: every pending block keeps
// the set of peers it is pending on, and OnBlock cancels exactly that set.
// It is the reference the production Requester is checked against, op for
// op, by FuzzRequesterOps and TestRequesterMatchesOracle.
type oracleRequester struct {
	geo        metainfo.Geometry
	picker     Picker
	have       *bitfield.Bitfield
	inflight   *bitfield.Bitfield
	progress   map[int]*oracleProgress
	order      []int
	pending    map[PeerID]map[BlockRef]struct{}
	holders    map[BlockRef]map[PeerID]struct{}
	suppliers  map[int][]PeerID
	endgame    bool
	downloaded int
}

type oracleProgress struct {
	requested []bool
	received  []bool
	nReceived int
	nRequest  int
}

func newOracleRequester(geo metainfo.Geometry, picker Picker) *oracleRequester {
	return &oracleRequester{
		geo:       geo,
		picker:    picker,
		have:      bitfield.New(geo.NumPieces),
		inflight:  bitfield.New(geo.NumPieces),
		progress:  map[int]*oracleProgress{},
		pending:   map[PeerID]map[BlockRef]struct{}{},
		holders:   map[BlockRef]map[PeerID]struct{}{},
		suppliers: map[int][]PeerID{},
	}
}

func (r *oracleRequester) Pending(peer PeerID) int { return len(r.pending[peer]) }

func (r *oracleRequester) Next(rng *rand.Rand, peer PeerID, remote *bitfield.Bitfield) (BlockRef, bool) {
	if r.have.Complete() {
		return BlockRef{}, false
	}
	if r.endgame {
		return r.nextEndGame(rng, peer, remote)
	}
	for _, i := range r.order {
		if !remote.Has(i) {
			continue
		}
		if b := r.firstUnrequested(r.progress[i]); b >= 0 {
			return r.commit(peer, BlockRef{Piece: i, Block: b}), true
		}
	}
	st := PickState{Have: r.have, InFlight: r.inflight, Remote: remote, Downloaded: r.downloaded}
	if piece := r.picker.Pick(rng, &st); piece >= 0 {
		r.startPiece(piece)
		return r.commit(peer, BlockRef{Piece: piece, Block: 0}), true
	}
	if r.allBlocksRequested() {
		r.endgame = true
		return r.nextEndGame(rng, peer, remote)
	}
	return BlockRef{}, false
}

func (r *oracleRequester) nextEndGame(rng *rand.Rand, peer PeerID, remote *bitfield.Bitfield) (BlockRef, bool) {
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

func (r *oracleRequester) startPiece(i int) {
	nb := r.geo.BlocksIn(i)
	r.progress[i] = &oracleProgress{requested: make([]bool, nb), received: make([]bool, nb)}
	r.inflight.Set(i)
	r.order = append(r.order, i)
	delete(r.suppliers, i)
}

func (r *oracleRequester) dropPiece(i int) {
	delete(r.progress, i)
	r.inflight.Clear(i)
	for k, p := range r.order {
		if p == i {
			r.order = append(r.order[:k], r.order[k+1:]...)
			break
		}
	}
}

func (r *oracleRequester) commit(peer PeerID, ref BlockRef) BlockRef {
	p := r.progress[ref.Piece]
	if !p.requested[ref.Block] {
		p.requested[ref.Block] = true
		p.nRequest++
	}
	if r.pending[peer] == nil {
		r.pending[peer] = map[BlockRef]struct{}{}
	}
	r.pending[peer][ref] = struct{}{}
	if r.holders[ref] == nil {
		r.holders[ref] = map[PeerID]struct{}{}
	}
	r.holders[ref][peer] = struct{}{}
	return ref
}

func (r *oracleRequester) firstUnrequested(p *oracleProgress) int {
	for b, req := range p.requested {
		if !req {
			return b
		}
	}
	return -1
}

func (r *oracleRequester) allBlocksRequested() bool {
	ok := true
	r.have.Missing(func(i int) bool {
		p := r.progress[i]
		if p == nil || r.firstUnrequested(p) >= 0 {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func (r *oracleRequester) OnBlock(peer PeerID, ref BlockRef) (bool, []PeerBlock) {
	p := r.progress[ref.Piece]
	if p == nil || p.received[ref.Block] {
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
	var cancels []PeerBlock
	for other := range r.holders[ref] {
		cancels = append(cancels, PeerBlock{Peer: other, Ref: ref})
		delete(r.pending[other], ref)
	}
	sort.Slice(cancels, func(i, j int) bool { return cancels[i].Peer < cancels[j].Peer })
	delete(r.holders, ref)
	if p.nReceived == len(p.received) {
		r.dropPiece(ref.Piece)
		r.have.Set(ref.Piece)
		r.downloaded++
		return true, cancels
	}
	return false, cancels
}

func (r *oracleRequester) OnPieceHashFail(i int) {
	if !r.have.Has(i) {
		return
	}
	r.have.Clear(i)
	r.downloaded--
	r.OnPieceFailed(i)
}

func (r *oracleRequester) noteSupplier(peer PeerID, i int) {
	for _, p := range r.suppliers[i] {
		if p == peer {
			return
		}
	}
	r.suppliers[i] = append(r.suppliers[i], peer)
}

func (r *oracleRequester) PieceSuppliers(i int) []PeerID {
	src := r.suppliers[i]
	if len(src) == 0 {
		return nil
	}
	out := slices.Clone(src)
	slices.Sort(out)
	return out
}

func (r *oracleRequester) OnPieceFailed(i int) {
	r.dropPiece(i)
	delete(r.suppliers, i)
	for peer, refs := range r.pending {
		for ref := range refs {
			if ref.Piece == i {
				delete(refs, ref)
				r.dropHolder(peer, ref)
			}
		}
	}
}

func (r *oracleRequester) OnPeerGone(peer PeerID) {
	for ref := range r.pending[peer] {
		r.dropHolder(peer, ref)
		if len(r.holders[ref]) == 0 {
			delete(r.holders, ref)
			r.requeue(ref)
		}
	}
	delete(r.pending, peer)
}

func (r *oracleRequester) OnRequestTimeout(peer PeerID, ref BlockRef) {
	refs := r.pending[peer]
	if _, ok := refs[ref]; !ok {
		return
	}
	delete(refs, ref)
	r.dropHolder(peer, ref)
	if len(r.holders[ref]) == 0 {
		r.requeue(ref)
	}
}

// requeue makes a block with no pending copy requestable again, dropping
// its piece's progress once nothing of it is received or requested.
func (r *oracleRequester) requeue(ref BlockRef) {
	if p := r.progress[ref.Piece]; p != nil && !p.received[ref.Block] && p.requested[ref.Block] {
		p.requested[ref.Block] = false
		p.nRequest--
		if p.nReceived == 0 && p.nRequest == 0 {
			r.dropPiece(ref.Piece)
		}
	}
}

func (r *oracleRequester) forget(peer PeerID, ref BlockRef) {
	if refs := r.pending[peer]; refs != nil {
		delete(refs, ref)
	}
	r.dropHolder(peer, ref)
}

func (r *oracleRequester) dropHolder(peer PeerID, ref BlockRef) {
	if hs := r.holders[ref]; hs != nil {
		delete(hs, peer)
		if len(hs) == 0 {
			delete(r.holders, ref)
		}
	}
}

// requesterPair drives a production Requester and the oracle side by side
// over the same torrent, peers and RNG streams.
type requesterPair struct {
	t       *testing.T
	geo     metainfo.Geometry
	got     *Requester
	want    *oracleRequester
	rngGot  *rand.Rand
	rngWant *rand.Rand
	remotes []*bitfield.Bitfield
	step    int
	// op, opPeer and opRef name the last op for failure messages.
	op     string
	opPeer PeerID
	opRef  BlockRef
	refs   []BlockRef // scratch for sortedPending
}

func newRequesterPair(t *testing.T, geo metainfo.Geometry, remotes []*bitfield.Bitfield, seed int64, randomFirst bool) *requesterPair {
	picker := func() Picker {
		a := NewAvailability(geo.NumPieces)
		for _, b := range remotes {
			a.AddPeer(b)
		}
		return &RarestFirst{Avail: a, DisableRandomFirst: !randomFirst}
	}
	return &requesterPair{
		t:       t,
		geo:     geo,
		got:     NewRequester(geo, picker()),
		want:    newOracleRequester(geo, picker()),
		rngGot:  rand.New(rand.NewSource(seed)),
		rngWant: rand.New(rand.NewSource(seed)),
		remotes: remotes,
	}
}

func (rp *requesterPair) fail(format string, args ...any) {
	rp.t.Helper()
	rp.t.Fatalf("step %d (%s peer=%d ref=%+v): %s", rp.step, rp.op, rp.opPeer, rp.opRef, fmt.Sprintf(format, args...))
}

// sortedPending returns the blocks pending on peer in (piece, block)
// order, read from the production Requester.
func (rp *requesterPair) sortedPending(peer PeerID) []BlockRef {
	rp.refs = append(rp.refs[:0], rp.got.PendingOf(peer)...)
	slices.SortFunc(rp.refs, func(a, b BlockRef) int {
		if a.Piece != b.Piece {
			return a.Piece - b.Piece
		}
		return a.Block - b.Block
	})
	return rp.refs
}

func (rp *requesterPair) next(peer PeerID) {
	rp.op, rp.opPeer = "Next", peer
	g, gok := rp.got.Next(rp.rngGot, peer, rp.remotes[peer])
	w, wok := rp.want.Next(rp.rngWant, peer, rp.remotes[peer])
	if g != w || gok != wok {
		rp.fail("Next = %+v,%v; oracle %+v,%v", g, gok, w, wok)
	}
}

func (rp *requesterPair) onBlock(peer PeerID, ref BlockRef) {
	rp.op, rp.opPeer, rp.opRef = "OnBlock", peer, ref
	gd, gc := rp.got.OnBlock(peer, ref)
	gc = slices.Clone(gc)
	wd, wc := rp.want.OnBlock(peer, ref)
	if gd != wd || !slices.Equal(gc, wc) {
		rp.fail("OnBlock = %v %v; oracle %v %v", gd, gc, wd, wc)
	}
}

func (rp *requesterPair) peerGone(peer PeerID) {
	rp.op, rp.opPeer = "OnPeerGone", peer
	rp.got.OnPeerGone(peer)
	rp.want.OnPeerGone(peer)
}

func (rp *requesterPair) timeout(peer PeerID, ref BlockRef) {
	rp.op, rp.opPeer, rp.opRef = "OnRequestTimeout", peer, ref
	rp.got.OnRequestTimeout(peer, ref)
	rp.want.OnRequestTimeout(peer, ref)
}

// hashFail fails piece i: an owned piece through OnPieceHashFail (after
// comparing its suppliers), any other piece through OnPieceFailed.
func (rp *requesterPair) hashFail(i int) {
	if rp.got.Have().Has(i) {
		rp.op, rp.opRef = "OnPieceHashFail", BlockRef{Piece: i}
		if g, w := rp.got.PieceSuppliers(i), rp.want.PieceSuppliers(i); !slices.Equal(g, w) {
			rp.fail("PieceSuppliers = %v; oracle %v", g, w)
		}
		rp.got.OnPieceHashFail(i)
		rp.want.OnPieceHashFail(i)
		return
	}
	rp.op, rp.opRef = "OnPieceFailed", BlockRef{Piece: i}
	rp.got.OnPieceFailed(i)
	rp.want.OnPieceFailed(i)
}

// check compares every observable after an op and runs the production
// consistency check.
func (rp *requesterPair) check() {
	rp.t.Helper()
	for peer := range rp.remotes {
		id := PeerID(peer)
		if g, w := rp.got.Pending(id), rp.want.Pending(id); g != w {
			rp.fail("Pending(%d) = %d; oracle %d", peer, g, w)
		}
	}
	if g, w := rp.got.Downloaded(), rp.want.downloaded; g != w {
		rp.fail("Downloaded = %d; oracle %d", g, w)
	}
	if g, w := rp.got.InEndGame(), rp.want.endgame; g != w {
		rp.fail("InEndGame = %v; oracle %v", g, w)
	}
	for i := 0; i < rp.geo.NumPieces; i++ {
		if g, w := rp.got.Have().Has(i), rp.want.have.Has(i); g != w {
			rp.fail("Have(%d) = %v; oracle %v", i, g, w)
		}
	}
	if err := rp.got.CheckConsistency(); err != nil {
		rp.fail("CheckConsistency: %v", err)
	}
}

// checkRequesterOps decodes data into a torrent, 1-8 peers with full or
// partial remotes, and a sequence of Requester ops, and runs them through
// the production Requester and the oracle side by side.
func checkRequesterOps(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	nPeers := int(data[0]%8) + 1
	nPieces := int(data[1]%12) + 1
	blocks := int(data[1]/12%4) + 1
	// A ragged torrent: the final block is short by up to 3/4 of a block.
	ragged := int64(data[2]%4) * metainfo.BlockSize / 4
	total := int64(nPieces*blocks)*metainfo.BlockSize - ragged
	geo := metainfo.NewGeometry(total, blocks*metainfo.BlockSize)
	rng := rand.New(rand.NewSource(int64(data[2])))
	remotes := make([]*bitfield.Bitfield, nPeers)
	for p := range remotes {
		remotes[p] = bitfield.New(geo.NumPieces)
		if p == 0 || data[2]&0x80 != 0 {
			remotes[p].SetAll()
			continue
		}
		for i := 0; i < geo.NumPieces; i++ {
			if rng.Intn(3) > 0 {
				remotes[p].Set(i)
			}
		}
	}
	rp := newRequesterPair(t, geo, remotes, int64(len(data)), data[2]&0x40 != 0)
	ops := data[3:]
	if len(ops) > 256 {
		ops = ops[:256]
	}
	for k, by := range ops {
		rp.step = k
		peer := PeerID(int(by>>3) % nPeers)
		switch by % 8 {
		case 0, 1, 2:
			rp.next(peer)
		case 3, 4:
			// Deliver a block pending on some peer, from peer itself or
			// (an unsolicited or late copy) from another one.
			owner := PeerID((int(by>>3) + int(by>>6)) % nPeers)
			if refs := rp.sortedPending(owner); len(refs) > 0 {
				rp.onBlock(peer, refs[int(by>>3)%len(refs)])
			} else {
				rp.onBlock(peer, BlockRef{Piece: int(by>>3) % geo.NumPieces})
			}
		case 5:
			if refs := rp.sortedPending(peer); len(refs) > 0 {
				rp.timeout(peer, refs[int(by>>4)%len(refs)])
			} else {
				rp.timeout(peer, BlockRef{Piece: int(by>>3) % geo.NumPieces})
			}
		case 6:
			rp.peerGone(peer)
		case 7:
			rp.hashFail(int(by>>3) % geo.NumPieces)
		}
		rp.check()
	}
	// Drain: every peer keeps asking and delivering until the torrent is
	// complete or no peer is offered anything.
	for round := 0; !rp.got.Complete() && round < 4*geo.TotalBlocks()+8; round++ {
		rp.step = len(data) + round
		progress := false
		for p := range remotes {
			peer := PeerID(p)
			g, ok := rp.got.Next(rp.rngGot, peer, remotes[p])
			w, wok := rp.want.Next(rp.rngWant, peer, remotes[p])
			rp.op, rp.opPeer = "drain Next", peer
			if g != w || ok != wok {
				rp.fail("Next = %+v,%v; oracle %+v,%v", g, ok, w, wok)
			}
			if ok {
				progress = true
				rp.onBlock(peer, g)
			}
			rp.check()
		}
		if !progress {
			break
		}
	}
}

// FuzzRequesterOps checks the Requester against the map-of-sets oracle
// over fuzzed op sequences: Next, OnBlock (solicited, unsolicited and
// stale), OnPeerGone, OnRequestTimeout, OnPieceFailed and OnPieceHashFail,
// over 1-8 peers with full or partial remotes, through end game.
func FuzzRequesterOps(f *testing.F) {
	f.Add([]byte{3, 25, 0x80, 0, 8, 16, 3, 11, 19, 6, 7, 0, 1, 2})
	f.Add([]byte{7, 4, 0x03, 0, 0, 0, 0, 1, 9, 17, 25, 33, 41, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 0, 0xc1, 0, 3, 7, 0, 3, 15})
	f.Add(bytes.Repeat([]byte{0x45, 0x08, 0x13, 0x7c, 0x21, 0x9a, 0x30}, 40))
	f.Fuzz(checkRequesterOps)
}

// TestRequesterMatchesOracle runs checkRequesterOps over a fixed batch of
// random inputs, so every plain test run covers far more op sequences
// than the fuzz seeds alone.
func TestRequesterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 3+rng.Intn(400))
		rng.Read(data)
		checkRequesterOps(t, data)
	}
}
