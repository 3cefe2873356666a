package core

import (
	"math/rand"
	"testing"

	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/metainfo"
)

// fullRemote returns a bitfield with all n pieces set (a seed's view).
func fullRemote(n int) *bitfield.Bitfield {
	b := bitfield.New(n)
	b.SetAll()
	return b
}

// newTestRequester builds a requester over p pieces of 4 blocks each using
// a rarest-first picker fed by a uniform availability (all pieces count 1).
func newTestRequester(p int) *Requester {
	geo := metainfo.NewGeometry(int64(p)*4*metainfo.BlockSize, 4*metainfo.BlockSize)
	a := NewAvailability(p)
	for i := 0; i < p; i++ {
		a.Inc(i)
	}
	return NewRequester(geo, &RarestFirst{Avail: a, DisableRandomFirst: true})
}

func TestRequesterDownloadsWholeTorrent(t *testing.T) {
	r := newTestRequester(10)
	rng := rand.New(rand.NewSource(1))
	remote := fullRemote(10)
	const peer = PeerID(1)
	steps := 0
	for !r.Complete() {
		ref, ok := r.Next(rng, peer, remote)
		if !ok {
			t.Fatalf("no block offered with %d/%d pieces done", r.Downloaded(), 10)
		}
		r.OnBlock(peer, ref)
		if steps++; steps > 10*4+5 {
			t.Fatal("too many steps; duplicate requests outside end game")
		}
	}
	if r.Downloaded() != 10 || !r.Have().Complete() {
		t.Fatalf("downloaded=%d", r.Downloaded())
	}
	if _, ok := r.Next(rng, peer, remote); ok {
		t.Fatal("offered a block after completion")
	}
}

func TestRequesterStrictPriority(t *testing.T) {
	// After the first block of a piece is requested, the following requests
	// must complete that piece before starting another (§II-C.1).
	r := newTestRequester(8)
	rng := rand.New(rand.NewSource(2))
	remote := fullRemote(8)
	const peer = PeerID(1)
	first, ok := r.Next(rng, peer, remote)
	if !ok {
		t.Fatal("no first block")
	}
	for b := 1; b < 4; b++ {
		ref, ok := r.Next(rng, peer, remote)
		if !ok {
			t.Fatal("no block")
		}
		if ref.Piece != first.Piece {
			t.Fatalf("strict priority violated: started piece %d with piece %d incomplete", ref.Piece, first.Piece)
		}
		if ref.Block != b {
			t.Fatalf("block order: got %d, want %d", ref.Block, b)
		}
	}
	// Piece fully requested; the next request starts a new piece.
	ref, ok := r.Next(rng, peer, remote)
	if !ok || ref.Piece == first.Piece {
		t.Fatalf("expected a new piece, got %+v ok=%v", ref, ok)
	}
}

func TestRequesterStrictPriorityAcrossPeers(t *testing.T) {
	// A second peer must also be steered to the in-flight piece.
	r := newTestRequester(8)
	rng := rand.New(rand.NewSource(3))
	remote := fullRemote(8)
	first, _ := r.Next(rng, PeerID(1), remote)
	ref, ok := r.Next(rng, PeerID(2), remote)
	if !ok || ref.Piece != first.Piece || ref.Block != 1 {
		t.Fatalf("peer 2 got %+v, want block 1 of piece %d", ref, first.Piece)
	}
}

func TestRequesterInterested(t *testing.T) {
	r := newTestRequester(4)
	remote := bitfield.New(4)
	if r.Interested(remote) {
		t.Fatal("interested in empty remote")
	}
	remote.Set(2)
	if !r.Interested(remote) {
		t.Fatal("not interested in remote with a needed piece")
	}
	rng := rand.New(rand.NewSource(4))
	// Download piece 2 only.
	for !r.Have().Has(2) {
		ref, ok := r.Next(rng, 1, remote)
		if !ok {
			t.Fatal("no block for piece 2")
		}
		if ref.Piece != 2 {
			t.Fatalf("picked piece %d from remote that only has 2", ref.Piece)
		}
		r.OnBlock(1, ref)
	}
	if r.Interested(remote) {
		t.Fatal("still interested after owning the only shared piece")
	}
}

func TestRequesterPendingAndPeerGone(t *testing.T) {
	r := newTestRequester(6)
	rng := rand.New(rand.NewSource(5))
	remote := fullRemote(6)
	var refs []BlockRef
	for i := 0; i < 3; i++ {
		ref, ok := r.Next(rng, 9, remote)
		if !ok {
			t.Fatal("no block")
		}
		refs = append(refs, ref)
	}
	if r.Pending(9) != 3 || len(r.PendingOf(9)) != 3 {
		t.Fatalf("pending = %d", r.Pending(9))
	}
	r.OnPeerGone(9)
	if r.Pending(9) != 0 {
		t.Fatalf("pending after gone = %d", r.Pending(9))
	}
	// The abandoned piece must have been fully rolled back (no received
	// blocks, so its progress is dropped)...
	if r.inflight.Has(refs[0].Piece) {
		t.Fatalf("piece %d still in flight after requeue", refs[0].Piece)
	}
	// ...and a fresh peer gets blocks 0..2 of a single freshly picked piece
	// (strict priority from a clean slate).
	for i := 0; i < 3; i++ {
		ref, ok := r.Next(rng, 10, remote)
		if !ok {
			t.Fatal("no block after requeue")
		}
		if ref.Block != i {
			t.Fatalf("request %d = %+v, want block %d", i, ref, i)
		}
	}
}

func TestRequesterOnRequestTimeout(t *testing.T) {
	r := newTestRequester(6)
	rng := rand.New(rand.NewSource(11))
	remote := fullRemote(6)

	// Time out one of three in-flight requests: the block must become
	// requestable again while the other two stay pending.
	var refs []BlockRef
	for i := 0; i < 3; i++ {
		ref, ok := r.Next(rng, 1, remote)
		if !ok {
			t.Fatal("no block")
		}
		refs = append(refs, ref)
	}
	r.OnRequestTimeout(1, refs[1])
	if r.Pending(1) != 2 {
		t.Fatalf("pending after timeout = %d, want 2", r.Pending(1))
	}
	// Strict priority re-offers the timed-out block (lowest unrequested
	// block of the in-flight piece) — possibly to a different peer.
	ref, ok := r.Next(rng, 2, remote)
	if !ok || ref != refs[1] {
		t.Fatalf("reissue got %+v ok=%v, want %+v", ref, ok, refs[1])
	}

	// Timing out a ref the peer does not hold is a no-op.
	before := r.Pending(1)
	r.OnRequestTimeout(1, BlockRef{Piece: 5, Block: 3})
	r.OnRequestTimeout(99, refs[0])
	if r.Pending(1) != before {
		t.Fatalf("no-op timeout changed pending: %d -> %d", before, r.Pending(1))
	}

	// A piece whose only requests all time out with nothing received must
	// be dropped from the in-flight set entirely (like OnPeerGone).
	r2 := newTestRequester(6)
	ref0, _ := r2.Next(rng, 1, remote)
	r2.OnRequestTimeout(1, ref0)
	if r2.inflight.Has(ref0.Piece) {
		t.Fatalf("piece %d still in flight after its only request timed out", ref0.Piece)
	}
	if r2.Pending(1) != 0 {
		t.Fatalf("pending = %d after only request timed out", r2.Pending(1))
	}

	// A block delivered by another holder must survive a stale timeout:
	// in end game two peers can hold the same ref, and one timing out must
	// not clobber the received state.
	r3 := newTestRequester(6)
	refA, _ := r3.Next(rng, 1, remote)
	r3.OnBlock(1, refA)
	r3.OnRequestTimeout(1, refA) // stale: already delivered and forgotten
	if got := r3.Pending(1); got != 0 {
		t.Fatalf("pending = %d after stale timeout", got)
	}
}

func TestRequesterPeerGoneDropsEmptyProgress(t *testing.T) {
	r := newTestRequester(6)
	rng := rand.New(rand.NewSource(6))
	remote := fullRemote(6)
	ref, _ := r.Next(rng, 1, remote)
	if !r.inflight.Has(ref.Piece) {
		t.Fatal("piece not in flight")
	}
	r.OnPeerGone(1)
	if r.inflight.Has(ref.Piece) {
		t.Fatal("empty piece progress kept after requeue")
	}
	// With one received block the progress must survive.
	ref, _ = r.Next(rng, 2, remote)
	r.OnBlock(2, ref)
	ref2, _ := r.Next(rng, 2, remote)
	r.OnPeerGone(2)
	if !r.inflight.Has(ref2.Piece) {
		t.Fatal("partially received piece dropped")
	}
}

func TestRequesterEndGame(t *testing.T) {
	// 2 pieces x 4 blocks. Peer A is asked for everything but delivers
	// nothing; once all blocks are requested, end game begins and peer B
	// may request the same blocks. Deliveries by B cancel A's pending.
	r := newTestRequester(2)
	rng := rand.New(rand.NewSource(7))
	remote := fullRemote(2)
	for i := 0; i < 8; i++ {
		if _, ok := r.Next(rng, 1, remote); !ok {
			t.Fatalf("block %d not offered", i)
		}
	}
	if r.InEndGame() {
		t.Fatal("end game before exhaustion check")
	}
	// Peer 1 asks again: everything requested -> end game, duplicates to
	// the same peer are refused.
	if _, ok := r.Next(rng, 1, remote); ok {
		t.Fatal("peer 1 got a duplicate of its own pending block")
	}
	if !r.InEndGame() {
		t.Fatal("end game not entered")
	}
	// Peer 2 can duplicate-request all 8 blocks.
	got := map[BlockRef]bool{}
	for i := 0; i < 8; i++ {
		ref, ok := r.Next(rng, 2, remote)
		if !ok {
			t.Fatalf("end game refused block %d for peer 2", i)
		}
		if got[ref] {
			t.Fatalf("end game duplicated %+v to the same peer", ref)
		}
		got[ref] = true
	}
	// Peer 2 delivers one block: peer 1's pending copy must be cancelled.
	var any BlockRef
	for ref := range got {
		any = ref
		break
	}
	_, cancels := r.OnBlock(2, any)
	if len(cancels) != 1 || cancels[0].Peer != 1 || cancels[0].Ref != any {
		t.Fatalf("cancels = %+v", cancels)
	}
	if r.Pending(1) != 7 {
		t.Fatalf("peer 1 pending = %d, want 7", r.Pending(1))
	}
	// Deliver everything else via peer 1; duplicates from peer 2 ignored.
	for _, ref := range r.PendingOf(1) {
		r.OnBlock(1, ref)
	}
	if !r.Complete() {
		t.Fatalf("not complete: %d pieces", r.Downloaded())
	}
}

func TestRequesterDuplicateDeliveryIgnored(t *testing.T) {
	r := newTestRequester(1)
	rng := rand.New(rand.NewSource(8))
	remote := fullRemote(1)
	ref, _ := r.Next(rng, 1, remote)
	done, _ := r.OnBlock(1, ref)
	if done {
		t.Fatal("piece done after 1 of 4 blocks")
	}
	done, cancels := r.OnBlock(1, ref) // duplicate
	if done || cancels != nil {
		t.Fatal("duplicate delivery had effects")
	}
}

func TestRequesterAddHave(t *testing.T) {
	r := newTestRequester(4)
	r.AddHave(0)
	r.AddHave(0)
	if r.Downloaded() != 1 {
		t.Fatalf("downloaded = %d", r.Downloaded())
	}
	rng := rand.New(rand.NewSource(9))
	remote := fullRemote(4)
	for i := 0; i < 12; i++ { // 3 remaining pieces x 4 blocks
		ref, ok := r.Next(rng, 1, remote)
		if !ok {
			t.Fatal("no block")
		}
		if ref.Piece == 0 {
			t.Fatal("requested a piece we already have")
		}
		r.OnBlock(1, ref)
	}
	if !r.Complete() {
		t.Fatal("not complete")
	}
}

func TestRequesterOnPieceFailed(t *testing.T) {
	r := newTestRequester(2)
	rng := rand.New(rand.NewSource(10))
	remote := fullRemote(2)
	// Receive 3 of 4 blocks of some piece.
	var piece int
	for i := 0; i < 3; i++ {
		ref, _ := r.Next(rng, 1, remote)
		piece = ref.Piece
		r.OnBlock(1, ref)
	}
	r.OnPieceFailed(piece)
	if r.inflight.Has(piece) {
		t.Fatal("failed piece still in flight")
	}
	// The piece must be fully downloadable again.
	count := 0
	for !r.Have().Has(piece) {
		ref, ok := r.Next(rng, 1, remote)
		if !ok {
			t.Fatal("no block for failed piece")
		}
		r.OnBlock(1, ref)
		if count++; count > 8 {
			t.Fatal("failed piece not recoverable")
		}
	}
}

func TestRequesterRaggedLastPiece(t *testing.T) {
	// 3 pieces of 4 blocks, last piece 1 short block.
	geo := metainfo.NewGeometry(int64(2*4*metainfo.BlockSize+100), 4*metainfo.BlockSize)
	a := NewAvailability(geo.NumPieces)
	for i := 0; i < geo.NumPieces; i++ {
		a.Inc(i)
	}
	r := NewRequester(geo, &RarestFirst{Avail: a, DisableRandomFirst: true})
	rng := rand.New(rand.NewSource(11))
	remote := fullRemote(geo.NumPieces)
	for !r.Complete() {
		ref, ok := r.Next(rng, 1, remote)
		if !ok {
			t.Fatal("stuck")
		}
		r.OnBlock(1, ref)
	}
	if r.Downloaded() != 3 {
		t.Fatalf("downloaded = %d", r.Downloaded())
	}
}

func TestRequesterPartialRemote(t *testing.T) {
	// The remote has only piece 1; every request must target piece 1 and
	// stop once it's complete.
	r := newTestRequester(4)
	rng := rand.New(rand.NewSource(12))
	remote := bitfield.New(4)
	remote.Set(1)
	for b := 0; b < 4; b++ {
		ref, ok := r.Next(rng, 1, remote)
		if !ok || ref.Piece != 1 {
			t.Fatalf("got %+v ok=%v", ref, ok)
		}
		r.OnBlock(1, ref)
	}
	if _, ok := r.Next(rng, 1, remote); ok {
		t.Fatal("request offered with nothing wanted from this remote")
	}
}

func TestRequesterPieceSuppliers(t *testing.T) {
	// Suppliers survive piece completion (blame attribution after a hash
	// failure) and dedup repeat deliveries from the same peer.
	r := newTestRequester(2)
	rng := rand.New(rand.NewSource(20))
	remote := fullRemote(2)
	first, _ := r.Next(rng, PeerID(1), remote)
	r.OnBlock(1, first)
	for b := 1; b < 4; b++ {
		ref, ok := r.Next(rng, PeerID(2), remote)
		if !ok || ref.Piece != first.Piece {
			t.Fatalf("strict priority: %+v ok=%v", ref, ok)
		}
		r.OnBlock(2, ref)
	}
	got := r.PieceSuppliers(first.Piece)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("suppliers = %v, want [1 2]", got)
	}
	if s := r.PieceSuppliers(1 - first.Piece); s != nil {
		t.Fatalf("untouched piece has suppliers %v", s)
	}
	// The record clears on hash failure so the re-download starts fresh.
	r.OnPieceHashFail(first.Piece)
	if s := r.PieceSuppliers(first.Piece); s != nil {
		t.Fatalf("suppliers survived hash failure: %v", s)
	}
}

func TestRequesterHashFailDuringEndGame(t *testing.T) {
	// A hash failure on the final piece — detected while end game
	// duplicates are still pending on other peers — must revert acceptance
	// exactly once, leave the bookkeeping consistent, and let the
	// re-download complete without double-counting.
	r := newTestRequester(2)
	rng := rand.New(rand.NewSource(21))
	remote := fullRemote(2)

	// Peer 1 downloads piece A entirely, then all but the last block of
	// piece B.
	var refs []BlockRef
	for i := 0; i < 8; i++ {
		ref, ok := r.Next(rng, PeerID(1), remote)
		if !ok {
			t.Fatalf("step %d: nothing offered", i)
		}
		refs = append(refs, ref)
		if i < 7 {
			r.OnBlock(1, ref)
		}
	}
	last := refs[7] // requested on peer 1, not yet delivered

	// Every block is now received or requested: peer 2 asking must flip
	// end game mode and duplicate the missing block.
	dup, ok := r.Next(rng, PeerID(2), remote)
	if !ok || !r.InEndGame() {
		t.Fatalf("no end game entry: ok=%v endgame=%v", ok, r.InEndGame())
	}
	if dup != last {
		t.Fatalf("end game duplicated %+v, want %+v", dup, last)
	}

	// Peer 2 wins the race; its copy completes the piece (cancel goes to
	// peer 1) but the assembled piece fails verification.
	done, cancels := r.OnBlock(2, dup)
	if !done || len(cancels) != 1 || cancels[0].Peer != 1 {
		t.Fatalf("done=%v cancels=%v", done, cancels)
	}
	if !r.Complete() || r.Downloaded() != 2 {
		t.Fatalf("pre-fail state: complete=%v downloaded=%d", r.Complete(), r.Downloaded())
	}
	suppliers := r.PieceSuppliers(last.Piece)
	r.OnPieceHashFail(last.Piece)
	if len(suppliers) == 0 {
		t.Fatal("no suppliers recorded for the failed piece")
	}
	if r.Complete() || r.Downloaded() != 1 {
		t.Fatalf("post-fail state: complete=%v downloaded=%d", r.Complete(), r.Downloaded())
	}
	if err := r.CheckConsistency(); err != nil {
		t.Fatalf("inconsistent after end game hash fail: %v", err)
	}
	// A second revert of the same piece is a no-op, not a double decrement.
	r.OnPieceHashFail(last.Piece)
	if r.Downloaded() != 1 {
		t.Fatalf("double revert changed downloaded to %d", r.Downloaded())
	}

	// Peer 1's stale end game copy arrives after the revert: the piece was
	// re-armed, so this delivery counts toward the fresh attempt at most
	// once and never re-completes the torrent on its own.
	r.OnBlock(1, last)
	if r.Complete() {
		t.Fatal("stale duplicate completed the torrent")
	}

	// Re-download the failed piece; the torrent completes exactly once,
	// with downloaded equal to the piece count.
	for !r.Complete() {
		ref, ok := r.Next(rng, PeerID(2), remote)
		if !ok {
			t.Fatalf("re-download stuck at downloaded=%d", r.Downloaded())
		}
		r.OnBlock(2, ref)
	}
	if r.Downloaded() != 2 {
		t.Fatalf("final downloaded = %d, want 2 (no double count)", r.Downloaded())
	}
	if err := r.CheckConsistency(); err != nil {
		t.Fatalf("inconsistent after re-download: %v", err)
	}
}

// TestRequesterAllocsPerBlock pins the allocation cost of a whole download:
// 256 pieces of 16 blocks from 8 seeds, one outstanding block per peer.
// Piece state is a few slices per piece and pending sets are reused, so
// the cost stays well under one object per block.
func TestRequesterAllocsPerBlock(t *testing.T) {
	const pieces, peers = 256, 8
	geo := metainfo.NewGeometry(pieces*16*metainfo.BlockSize, 16*metainfo.BlockSize)
	full := fullRemote(pieces)
	rng := rand.New(rand.NewSource(1))
	download := func() {
		avail := NewAvailability(pieces)
		for p := 0; p < peers; p++ {
			avail.AddPeer(full)
		}
		r := NewRequester(geo, &RarestFirst{Avail: avail})
		for i := 0; !r.Complete(); i++ {
			peer := PeerID(i % peers)
			if ref, ok := r.Next(rng, peer, full); ok {
				r.OnBlock(peer, ref)
			}
		}
	}
	perBlock := testing.AllocsPerRun(5, download) / float64(geo.TotalBlocks())
	if perBlock >= 0.5 {
		t.Fatalf("%.2f allocations per block, want < 0.5", perBlock)
	}
}
