package core

import (
	"math/bits"
	"math/rand"

	"rarestfirst/internal/bitfield"
)

// RandomFirstThreshold is the number of pieces a peer downloads at random
// before switching to rarest first (the mainline default the paper reports:
// "if a peer has downloaded strictly less than 4 pieces, it chooses
// randomly the next piece to be requested").
const RandomFirstThreshold = 4

// PickState is the per-peer state a Picker consults when choosing the next
// piece to download from a remote peer.
type PickState struct {
	// Have is the set of pieces the local peer has completed and verified.
	Have *bitfield.Bitfield
	// InFlight is the set of pieces currently being downloaded (started but
	// not complete). A picker must not select these; strict priority at the
	// block level is handled by the Requester.
	InFlight *bitfield.Bitfield
	// Remote is the set of pieces the candidate remote peer advertises.
	Remote *bitfield.Bitfield
	// Downloaded is the number of pieces the local peer has completed; it
	// drives the random-first policy.
	Downloaded int
}

// wantWord returns the 64-piece word of downloadable pieces at word index
// wi: remote &^ (have | inflight) — the remote has them, we don't, and we
// are not already fetching them. All three bitfields share a length, so
// their tail invariants make the combination exact without masking.
func (s *PickState) wantWord(wi int) uint64 {
	return s.Remote.WordAt(wi) &^ (s.Have.WordAt(wi) | s.InFlight.WordAt(wi))
}

// Picker selects the next piece to download from a remote peer, or -1 when
// nothing is wanted. Implementations must be deterministic given the rng.
type Picker interface {
	Pick(rng *rand.Rand, s *PickState) int
	Name() string
}

// RarestFirst is the paper's piece selection strategy (§II-C.1): pieces are
// picked uniformly at random from the rarest pieces set, with the
// random-first policy for a peer's first pieces. Availability must be the
// local peer's view of its own peer set.
type RarestFirst struct {
	Avail *Availability
	// DisableRandomFirst turns off the random-first policy (for ablations).
	DisableRandomFirst bool
}

// Name implements Picker.
func (p *RarestFirst) Name() string { return "rarest-first" }

// Pick implements Picker.
func (p *RarestFirst) Pick(rng *rand.Rand, s *PickState) int {
	if !p.DisableRandomFirst && s.Downloaded < RandomFirstThreshold {
		return pickUniform(rng, s)
	}
	return p.Avail.PickRarest(rng, s)
}

// RandomPicker selects uniformly among wanted pieces; the baseline the
// paper cites rarest first as beating ([5], [9]).
type RandomPicker struct{}

// Name implements Picker.
func (RandomPicker) Name() string { return "random" }

// Pick implements Picker.
func (RandomPicker) Pick(rng *rand.Rand, s *PickState) int {
	return pickUniform(rng, s)
}

// pickUniform picks a wanted piece uniformly at random, word-parallel: a
// popcount pass sizes the candidate set, one rng.Intn draw selects a rank,
// and a second pass locates that rank's bit. Versus the old per-candidate
// reservoir this touches only set bits and consumes exactly one RNG draw
// (a documented reproducibility-contract bump; the distribution is
// unchanged).
func pickUniform(rng *rand.Rand, s *PickState) int {
	nw := s.Remote.NumWords()
	count := 0
	for wi := 0; wi < nw; wi++ {
		count += bits.OnesCount64(s.wantWord(wi))
	}
	if count == 0 {
		return -1
	}
	k := rng.Intn(count)
	for wi := 0; wi < nw; wi++ {
		w := s.wantWord(wi)
		pc := bits.OnesCount64(w)
		if k >= pc {
			k -= pc
			continue
		}
		return wi<<6 + selectBit(w, k)
	}
	return -1 // unreachable: k < count
}

// selectBit returns the bit position (MSB-first, i.e. piece order within a
// word) of the k-th set bit of w; k must be < OnesCount64(w).
func selectBit(w uint64, k int) int {
	for ; k > 0; k-- {
		w &^= 1 << (63 - uint(bits.LeadingZeros64(w)))
	}
	return bits.LeadingZeros64(w)
}

// SequentialPicker selects the lowest-indexed wanted piece (in-order
// download, the degenerate strategy streaming clients use; included as a
// worst-case diversity baseline).
type SequentialPicker struct{}

// Name implements Picker.
func (SequentialPicker) Name() string { return "sequential" }

// Pick implements Picker.
func (SequentialPicker) Pick(rng *rand.Rand, s *PickState) int {
	n := s.Remote.Len()
	nw := s.Remote.NumWords()
	for wi := 0; wi < nw; wi++ {
		if w := s.wantWord(wi); w != 0 {
			if i := wi<<6 + bits.LeadingZeros64(w); i < n {
				return i
			}
		}
	}
	return -1
}

// GlobalRarest picks the globally rarest wanted piece using an oracle
// availability index covering the whole torrent rather than the local peer
// set. It models the "global knowledge" assumption of the analytical
// studies ([21], [25]) the paper contrasts with; the gap between
// GlobalRarest and RarestFirst measures what local knowledge costs.
type GlobalRarest struct {
	// Global is maintained by the simulator over all peers in the torrent.
	Global *Availability
}

// Name implements Picker.
func (p *GlobalRarest) Name() string { return "global-rarest" }

// Pick implements Picker.
func (p *GlobalRarest) Pick(rng *rand.Rand, s *PickState) int {
	return p.Global.PickRarest(rng, s)
}
