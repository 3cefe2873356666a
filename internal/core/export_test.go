package core

// Accessors and constructors only the tests use.

// NumPieces returns the number of pieces indexed.
func (a *Availability) NumPieces() int { return len(a.counts) }

// Peers returns the number of peer bitfields currently folded in.
func (a *Availability) Peers() int { return a.peers }

// NewOldSeedChoker returns the standard 4-slot old-algorithm seed choker.
func NewOldSeedChoker() *OldSeedChoker { return &OldSeedChoker{} }

// NewTitForTatChoker returns a 4-slot tit-for-tat choker with the given
// deficit threshold in bytes.
func NewTitForTatChoker(limit int64) *TitForTatChoker {
	return &TitForTatChoker{DeficitLimit: limit}
}

// PendingOf returns the blocks currently pending on peer.
func (r *Requester) PendingOf(peer PeerID) []BlockRef {
	refs := make([]BlockRef, 0, len(r.pending[peer]))
	for ref := range r.pending[peer] {
		refs = append(refs, ref)
	}
	return refs
}
