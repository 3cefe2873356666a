package core

import (
	"math/rand"
	"slices"
)

// ChokeInterval is the length in seconds of one choke round (§II-C.2:
// "every 10 seconds").
const ChokeInterval = 10.0

// RoundsPerOptimistic is how many rounds an optimistic unchoke persists
// ("every 30 seconds, one additional interested remote peer is unchoked at
// random").
const RoundsPerOptimistic = 3

// DefaultUploadSlots is the active-peer-set size including the optimistic
// unchoke (mainline default 4: 3 regular + 1 optimistic).
const DefaultUploadSlots = 4

// ChokePeer is the per-peer view a Choker consults each round. The
// embedding layer fills it from live connection state; since a choker
// reads only the Interested rows (see Choker), it may build those alone.
type ChokePeer struct {
	ID PeerID
	// Interested reports whether the remote peer is interested in us.
	Interested bool
	// Unchoked reports whether we currently unchoke the remote peer.
	Unchoked bool
	// DownloadRate is the estimated rate at which the remote uploads to us
	// (leecher-state ordering criterion).
	DownloadRate float64
	// UploadRate is the estimated rate at which we upload to the remote
	// (the OLD seed-state ordering criterion).
	UploadRate float64
	// LastUnchoked is the time this peer last TRANSITIONED from choked to
	// unchoked (the NEW seed-state ordering criterion); it is not refreshed
	// while the peer stays unchoked, which is what ages SKU peers so that
	// each SRU takes the slot of the oldest one. Zero if never unchoked.
	LastUnchoked float64
	// UploadedTo / DownloadedFrom are lifetime byte counters (tit-for-tat
	// baseline criterion).
	UploadedTo     int64
	DownloadedFrom int64
	// RemotePieces is the number of pieces the remote advertises; the
	// newcomer-boost extension uses it to find peers with nothing yet.
	RemotePieces int
}

// Choker decides, once per ChokeInterval, which interested peers to
// unchoke. Round returns the IDs to unchoke; every other peer is choked.
// Implementations keep internal state (optimistic slots, round counters)
// and must be driven at a fixed cadence by the embedding layer.
//
// peers is read-only: a Round neither reorders nor retains it. IDs in a
// snapshot are unique. Rankings break ties on the smaller ID and then on
// snapshot position, and the seed random unchokes draw by snapshot
// position, so a round's outcome is a function of the RNG, the snapshot
// and its order.
//
// Uninterested rows are inert: every choker chooses only among Interested
// rows, and leaving the others out keeps the interested rows' relative
// order. So a Round over the interested rows alone returns the same IDs
// and makes the same RNG draws as a Round over the full snapshot, and the
// embedding layer may build rows for interested peers only.
//
// The returned slice is the choker's ChokeScratch storage: it is valid
// until the next Round of any choker that shares that scratch, and must
// not be retained.
type Choker interface {
	Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID
	Name() string
}

// ChokeScratch holds the per-round working storage a choker reuses across
// rounds, so a steady-state round allocates nothing. Peers are referred
// to by their index in the round's snapshot. A round leaves nothing in it
// that the next round reads, so any number of chokers may share one
// scratch, as long as their rounds do not overlap and each caller is done
// with a round's result before the next round starts. A choker whose
// Scratch is nil allocates its own on its first Round.
type ChokeScratch struct {
	top     []int32   // the selected peers, best first
	rest    []int32   // candidates of a random draw
	keys    []float64 // the rank key of each snapshot row (see selectTop)
	unchoke []PeerID
}

// useScratch returns *s, first pointing it at a new scratch if it is nil.
func useScratch(s **ChokeScratch) *ChokeScratch {
	if *s == nil {
		*s = new(ChokeScratch)
	}
	return *s
}

// rankKey is the per-peer criterion a choker orders by, larger first.
type rankKey func(p *ChokePeer) float64

func byDownloadRate(p *ChokePeer) float64 { return p.DownloadRate }
func byUploadRate(p *ChokePeer) float64   { return p.UploadRate }
func byLastUnchoked(p *ChokePeer) float64 { return p.LastUnchoked }

// ranksBefore reports whether peers[i] precedes peers[j], given each
// row's rank key in keys: larger key first, then smaller ID, then
// snapshot position. This is a strict total order, and the order a stable
// sort on (key desc, ID asc) leaves.
func ranksBefore(peers []ChokePeer, keys []float64, i, j int32) bool {
	if ka, kb := keys[i], keys[j]; ka != kb {
		return ka > kb
	}
	if a, b := peers[i].ID, peers[j].ID; a != b {
		return a < b
	}
	return i < j
}

// selectTop returns the scratch unchoke list, with room for slots IDs,
// filled with the k best eligible peers by key, best first. It first
// fills the keys column with every row's key, which a later ranked draw
// of the same round reads too. Offering the eligible peers in snapshot
// order to a k-slot insertion leaves the first k of their stable sort
// without sorting or copying the others.
func (s *ChokeScratch) selectTop(peers []ChokePeer, slots, k int, key rankKey, eligible func(p *ChokePeer) bool) []PeerID {
	keys := slices.Grow(s.keys[:0], len(peers))[:len(peers)]
	for i := range peers {
		keys[i] = key(&peers[i])
	}
	s.keys = keys
	top := slices.Grow(s.top[:0], k)
	for i := range peers {
		if !eligible(&peers[i]) {
			continue
		}
		idx, n := int32(i), len(top)
		if n == k {
			if n == 0 || !ranksBefore(peers, keys, idx, top[n-1]) {
				continue
			}
			n--
			top = top[:n]
		}
		top = append(top, idx)
		for ; n > 0 && ranksBefore(peers, keys, idx, top[n-1]); n-- {
			top[n] = top[n-1]
		}
		top[n] = idx
	}
	s.top = top
	unchoke := slices.Grow(s.unchoke[:0], slots)
	for _, i := range top {
		unchoke = append(unchoke, peers[i].ID)
	}
	return unchoke
}

// selectRank returns the element of idx at rank r (0-based) in the order
// ranksBefore defines, partially reordering idx. Quickselect with the
// middle element as pivot: deterministic, and linear on average.
func selectRank(peers []ChokePeer, keys []float64, idx []int32, r int) int32 {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		m := lo + (hi-lo)/2
		idx[m], idx[hi] = idx[hi], idx[m]
		pivot, s := idx[hi], lo
		for i := lo; i < hi; i++ {
			if ranksBefore(peers, keys, idx[i], pivot) {
				idx[s], idx[i] = idx[i], idx[s]
				s++
			}
		}
		idx[s], idx[hi] = pivot, idx[s]
		switch {
		case r == s:
			return pivot
		case r < s:
			hi = s - 1
		default:
			lo = s + 1
		}
	}
	return idx[lo]
}

// draw picks one random unchoke: an interested peer outside unchoke (and,
// with chokedOnly, not currently unchoked), uniformly at position Intn(n)
// of the candidates. With ranked, that position is a rank in the order of
// the keys column, which this round's selectTop filled, and only the
// drawn rank is ever ordered; without, it is the snapshot order. With
// boostNewcomers the draw is among the candidates that have no pieces at
// all, when there are any: this implements the paper's §VI improvement
// direction ("the time to deliver the first blocks of data should be
// reduced") by pointing the exploratory slot at peers that cannot yet
// reciprocate.
func (s *ChokeScratch) draw(rng *rand.Rand, peers []ChokePeer, unchoke []PeerID, chokedOnly, ranked, boostNewcomers bool) (PeerID, bool) {
	rest, empty := slices.Grow(s.rest[:0], len(peers)), 0
	for i := range peers {
		if p := &peers[i]; p.Interested && !(chokedOnly && p.Unchoked) && !containsID(unchoke, p.ID) {
			rest = append(rest, int32(i))
			if p.RemotePieces == 0 {
				empty++
			}
		}
	}
	s.rest = rest
	if len(rest) == 0 {
		return 0, false
	}
	if boostNewcomers && empty > 0 {
		rest = rest[:0]
		for _, i := range s.rest {
			if peers[i].RemotePieces == 0 {
				rest = append(rest, i)
			}
		}
	}
	r := rng.Intn(len(rest))
	if !ranked {
		return peers[rest[r]].ID, true
	}
	return peers[selectRank(peers, s.keys, rest, r)].ID, true
}

func isInterested(p *ChokePeer) bool { return p.Interested }

// interestedPeer reports whether id is an interested peer of the snapshot.
func interestedPeer(peers []ChokePeer, id PeerID) bool {
	for i := range peers {
		if peers[i].ID == id && peers[i].Interested {
			return true
		}
	}
	return false
}

// rateChoker is the round shared by the leecher choker and the old seed
// choker: the regular unchokes are the top slots-1 interested peers by
// key, and an optimistic unchoke rotates every RoundsPerOptimistic rounds
// or as soon as it leaves, loses interest or wins a regular slot.
type rateChoker struct {
	round int
	// optimistic is the current OU peer, valid when hasOpt.
	optimistic PeerID
	hasOpt     bool
}

// rankedRound runs one round in scratch s with slots total unchoke slots
// (0 means DefaultUploadSlots), ranking peers by key.
func (c *rateChoker) rankedRound(s *ChokeScratch, slots int, peers []ChokePeer, rng *rand.Rand, key rankKey, boostNewcomers bool) []PeerID {
	if slots <= 0 {
		slots = DefaultUploadSlots
	}
	unchoke := s.selectTop(peers, slots, slots-1, key, isInterested)
	rotate := c.round%RoundsPerOptimistic == 0
	if !rotate && c.hasOpt && (!interestedPeer(peers, c.optimistic) || containsID(unchoke, c.optimistic)) {
		rotate = true
	}
	if rotate {
		c.optimistic, c.hasOpt = s.draw(rng, peers, unchoke, false, true, boostNewcomers)
	}
	if c.hasOpt && !containsID(unchoke, c.optimistic) {
		unchoke = append(unchoke, c.optimistic)
	}
	c.round++
	s.unchoke = unchoke
	return unchoke
}

// LeecherChoker is the leecher-state choke algorithm (§II-C.2): every round
// the 3 fastest interested uploaders are unchoked (regular unchoke, RU) and
// every third round a random choked interested peer becomes the optimistic
// unchoke (OU) for the next three rounds. Rate ties break on the smaller
// ID, which keeps rounds deterministic.
type LeecherChoker struct {
	// Slots is the total active peer set size; 0 means DefaultUploadSlots.
	Slots int
	// BoostNewcomers points the optimistic unchoke at piece-less peers
	// when any are present (§VI extension).
	BoostNewcomers bool
	// Scratch is the round's working storage; nil means a private one.
	Scratch *ChokeScratch
	rateChoker
}

// NewLeecherChoker returns the standard 4-slot leecher choker.
func NewLeecherChoker() *LeecherChoker { return &LeecherChoker{} }

// Name implements Choker.
func (c *LeecherChoker) Name() string { return "choke-leecher" }

// Round implements Choker. Peers are ranked by download rate to the local
// peer, fastest first.
func (c *LeecherChoker) Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID {
	return c.rankedRound(useScratch(&c.Scratch), c.Slots, peers, rng, byDownloadRate, c.BoostNewcomers)
}

// SeedChoker is the NEW seed-state algorithm introduced in mainline 4.0.0
// (§II-C.2). Unchoked-and-interested peers are ordered by the time they
// were last unchoked, most recent first. For two 10-second periods the
// first 3 peers are kept and a 4th choked-and-interested peer is unchoked
// at random (seed random unchoke, SRU); every third period the first 4 are
// kept (seed kept unchoked, SKU). Peers therefore rotate through the
// active set and each gets the same expected service time.
type SeedChoker struct {
	// Slots is the active set size; 0 means DefaultUploadSlots.
	Slots int
	// BoostNewcomers points the seed random unchoke at piece-less peers
	// when any are present (§VI extension).
	BoostNewcomers bool
	// Scratch is the round's working storage; nil means a private one.
	Scratch *ChokeScratch
	round   int
}

// NewSeedChoker returns the standard 4-slot new-algorithm seed choker.
func NewSeedChoker() *SeedChoker { return &SeedChoker{} }

// Name implements Choker.
func (c *SeedChoker) Name() string { return "choke-seed-new" }

// Round implements Choker.
func (c *SeedChoker) Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID {
	slots := c.Slots
	if slots <= 0 {
		slots = DefaultUploadSlots
	}
	thirdPeriod := c.round%RoundsPerOptimistic == RoundsPerOptimistic-1
	c.round++
	keepN := slots - 1
	if thirdPeriod {
		keepN = slots
	}
	s := useScratch(&c.Scratch)
	// Keep the most recently unchoked of the peers currently unchoked.
	unchoke := s.selectTop(peers, slots, keepN, byLastUnchoked, func(p *ChokePeer) bool {
		return p.Interested && p.Unchoked
	})
	if !thirdPeriod {
		// SRU: one choked-and-interested peer chosen at random.
		if id, ok := s.draw(rng, peers, unchoke, true, false, c.BoostNewcomers); ok {
			unchoke = append(unchoke, id)
		}
	}
	// Fill spare slots (fewer unchoked peers than keepN) with random
	// choked interested peers so the seed never idles with demand present.
	for len(unchoke) < slots {
		id, ok := s.draw(rng, peers, unchoke, false, false, c.BoostNewcomers)
		if !ok {
			break
		}
		unchoke = append(unchoke, id)
	}
	s.unchoke = unchoke
	return unchoke
}

// OldSeedChoker is the pre-4.0.0 seed-state algorithm: identical to the
// leecher algorithm except peers are ordered by our upload rate to them,
// so fast downloaders (including fast free riders) monopolise the seed.
// Kept as the baseline for the A2 ablation.
type OldSeedChoker struct {
	Slots int
	// Scratch is the round's working storage; nil means a private one.
	Scratch *ChokeScratch
	rateChoker
}

// Name implements Choker.
func (c *OldSeedChoker) Name() string { return "choke-seed-old" }

// Round implements Choker.
func (c *OldSeedChoker) Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID {
	return c.rankedRound(useScratch(&c.Scratch), c.Slots, peers, rng, byUploadRate, false)
}

// TitForTatChoker is the bit-level tit-for-tat baseline from the literature
// the paper argues against ([5], [10], [15]): a peer refuses to upload to
// any peer whose byte deficit (uploaded-to minus downloaded-from) exceeds
// DeficitLimit. Within the allowed set the fastest uploaders win the slots.
// Excess capacity is therefore stranded — the behaviour the A3 ablation
// demonstrates.
type TitForTatChoker struct {
	Slots int
	// DeficitLimit is the maximum bytes of unreciprocated upload tolerated
	// before a peer is refused service.
	DeficitLimit int64
	// Scratch is the round's working storage; nil means a private one.
	Scratch *ChokeScratch
}

// Name implements Choker.
func (c *TitForTatChoker) Name() string { return "tit-for-tat" }

// Round implements Choker.
func (c *TitForTatChoker) Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID {
	slots := c.Slots
	if slots <= 0 {
		slots = DefaultUploadSlots
	}
	s := useScratch(&c.Scratch)
	unchoke := s.selectTop(peers, slots, slots, byDownloadRate, func(p *ChokePeer) bool {
		return p.Interested && p.UploadedTo-p.DownloadedFrom <= c.DeficitLimit
	})
	s.unchoke = unchoke
	return unchoke
}

// NeverUnchoke is the free-rider "choker": it uploads to nobody.
type NeverUnchoke struct{}

// Name implements Choker.
func (NeverUnchoke) Name() string { return "free-rider" }

// Round implements Choker.
func (NeverUnchoke) Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID {
	return nil
}

func containsID(ids []PeerID, id PeerID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
