// Package core implements the paper's two algorithms — the rarest-first
// piece selection strategy and the choke peer selection strategy — together
// with the baseline strategies the paper discusses (random piece selection,
// the old seed-state choke algorithm, bit-level tit-for-tat).
//
// The same implementations drive both the discrete-event swarm simulator
// (internal/swarm) and the real TCP client (internal/client), so the code
// under evaluation exists exactly once.
package core

import (
	"fmt"
	"math/bits"
	"math/rand"

	"rarestfirst/internal/bitfield"
)

// Availability tracks, for every piece, the number of copies present in the
// local peer set ("each peer maintains a list of the number of copies of
// each piece in its peer set", §II-C.1). It is exactly that list: a flat
// count array. Inc and Dec touch one count and nothing else — the HAVE
// fan-out hot path, which a huge-swarm run hits hundreds of millions of
// times, costs about one cache line per call and never allocates. The
// derived statistics (min/max copy count, count sum, rarest-set size) are
// recomputed by one scan the first time they are queried after an update;
// queries come once per sample instant, thousands of updates apart.
// PickRarest is a word-parallel scan of the wanted pieces' counts. Every
// simulated peer, the simulator's torrent-wide index and the live client
// share this one implementation.
type Availability struct {
	counts []int // copy count per piece
	peers  int   // number of contributing bitfields

	// Derived stats, recomputed by refresh when dirty.
	dirty bool
	minC  int   // lowest copy count (0 when there are no pieces)
	maxC  int   // highest copy count
	nMin  int   // number of pieces at minC
	sum   int64 // sum of all copy counts
}

// NewAvailability returns an all-zero availability index over n pieces.
func NewAvailability(n int) *Availability {
	a := MakeAvailability(make([]int, n))
	return &a
}

// MakeAvailability returns an all-zero availability index over
// len(counts) pieces, backed by counts, which the caller provides (a slab
// carved into many indexes, say) and must not touch again. It zeroes
// them. The index never writes past len(counts); SpareCounts lets a
// caller check that the backing slice was cut to its length.
func MakeAvailability(counts []int) Availability {
	clear(counts)
	return Availability{counts: counts, dirty: true}
}

// SpareCounts returns the backing capacity beyond the index's own counts:
// 0 for NewAvailability, and for MakeAvailability over a slice cut as
// s[:n:n].
func (a *Availability) SpareCounts() int { return cap(a.counts) - len(a.counts) }

// SetLazy does nothing. The index once had an eager bucketed mode beside
// the flat-count one; flat counts are now the only mode.
//
// Deprecated: there is no mode to set.
func (a *Availability) SetLazy(bool) {}

// Count returns the copy count of piece i.
func (a *Availability) Count(i int) int { return a.counts[i] }

// refresh recomputes the derived stats in one pass over the counts if an
// update has happened since the last query.
func (a *Availability) refresh() {
	if !a.dirty {
		return
	}
	a.dirty = false
	if len(a.counts) == 0 {
		return
	}
	min, max, nMin := a.counts[0], a.counts[0], 0
	var sum int64
	for _, c := range a.counts {
		sum += int64(c)
		switch {
		case c < min:
			min, nMin = c, 1
		case c == min:
			nMin++
		case c > max:
			max = c
		}
	}
	a.minC, a.maxC, a.sum, a.nMin = min, max, sum, nMin
}

// Inc records one more copy of piece i in the peer set (a HAVE message or
// one bit of a joining peer's bitfield).
func (a *Availability) Inc(i int) {
	a.counts[i]++
	a.dirty = true
}

// Dec records one fewer copy of piece i (a peer with the piece left the
// peer set). It panics if the count would go negative.
func (a *Availability) Dec(i int) {
	if a.counts[i] == 0 {
		panic(fmt.Sprintf("core: availability of piece %d below zero", i))
	}
	a.counts[i]--
	a.dirty = true
}

// AddPeer folds a joining peer's bitfield into the index.
func (a *Availability) AddPeer(b *bitfield.Bitfield) {
	a.peers++
	b.Range(func(i int) bool { a.Inc(i); return true })
}

// RemovePeer removes a leaving peer's bitfield from the index.
func (a *Availability) RemovePeer(b *bitfield.Bitfield) {
	a.peers--
	b.Range(func(i int) bool { a.Dec(i); return true })
}

// MinCount returns the minimum copy count over all pieces (m in the paper's
// definition of the rarest pieces set).
func (a *Availability) MinCount() int {
	a.refresh()
	return a.minC
}

// RarestSetSize returns the number of pieces that are equally rarest —
// the series plotted in Figs 3 and 6.
func (a *Availability) RarestSetSize() int {
	a.refresh()
	return a.nMin
}

// Stats returns the (min, mean, max) copy counts across all pieces — the
// three series plotted in Figs 2 and 4. The mean divides the integer count
// sum, so it does not depend on the order of updates.
func (a *Availability) Stats() (min int, mean float64, max int) {
	n := len(a.counts)
	if n == 0 {
		return 0, 0, 0
	}
	a.refresh()
	return a.minC, float64(a.sum) / float64(n), a.maxC
}

// PickRarest returns a piece uniformly random among the lowest-count
// pieces downloadable in state s, or -1 if no piece qualifies. This
// implements "select the next piece to download at random in the rarest
// pieces set", restricted — as in the mainline implementation — to pieces
// the target peer can actually provide.
//
// It makes two word-parallel passes over the wanted set. The first finds
// the minimal copy count among wanted pieces and sizes its tie set, one
// rng.Intn draw picks a rank, and the second locates that rank in
// ascending piece order: one RNG draw per pick, whatever the tie-set size.
func (a *Availability) PickRarest(rng *rand.Rand, s *PickState) int {
	nw := s.Remote.NumWords()
	best, k := 0, 0
	for wi := 0; wi < nw; wi++ {
		for w := s.wantWord(wi); w != 0; {
			b := bits.LeadingZeros64(w)
			w &^= 1 << (63 - uint(b))
			switch c := a.counts[wi<<6+b]; {
			case k == 0 || c < best:
				best, k = c, 1
			case c == best:
				k++
			}
		}
	}
	if k == 0 {
		return -1
	}
	j := rng.Intn(k)
	for wi := 0; wi < nw; wi++ {
		for w := s.wantWord(wi); w != 0; {
			b := bits.LeadingZeros64(w)
			w &^= 1 << (63 - uint(b))
			if i := wi<<6 + b; a.counts[i] == best {
				if j == 0 {
					return i
				}
				j--
			}
		}
	}
	return -1 // unreachable: j < k
}
