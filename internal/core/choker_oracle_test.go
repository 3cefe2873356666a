package core

// The sort-based choke rounds the production chokers replaced, kept as the
// oracle they are checked against: each Round below filters the interested
// peers into a copy, stable-sorts it on (key desc, ID asc) and reads the
// unchokes and the random draws off the sorted copy. The production rounds
// select the top peers and the drawn rank without sorting; for any
// snapshot and RNG state they must return the same unchokes in the same
// order and consume the same draws.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// pickCandidate selects a random candidate for an optimistic/random
// unchoke. With boostNewcomers, candidates that have no pieces at all are
// preferred: this implements the paper's §VI improvement direction ("the
// time to deliver the first blocks of data should be reduced") by pointing
// the exploratory slot at peers that cannot yet reciprocate.
func pickCandidate(rng *rand.Rand, cands []ChokePeer, boostNewcomers bool) (PeerID, bool) {
	if len(cands) == 0 {
		return 0, false
	}
	if boostNewcomers {
		var empty []ChokePeer
		for _, p := range cands {
			if p.RemotePieces == 0 {
				empty = append(empty, p)
			}
		}
		if len(empty) > 0 {
			return empty[rng.Intn(len(empty))].ID, true
		}
	}
	return cands[rng.Intn(len(cands))].ID, true
}

// oracleScratch holds the per-round working slices an oracle choker
// reuses across rounds.
type oracleScratch struct {
	interested []ChokePeer
	cands      []ChokePeer
	unchoke    []PeerID
}

// filterInterested refills s.interested with the interested peers.
func (s *oracleScratch) filterInterested(peers []ChokePeer) []ChokePeer {
	s.interested = s.interested[:0]
	for _, p := range peers {
		if p.Interested {
			s.interested = append(s.interested, p)
		}
	}
	return s.interested
}

// stableSortPeers sorts peers in place, preserving the order of equal
// elements. Insertion sort: peer lists are capped at the peer-set size,
// and this avoids the reflection swapper sort.SliceStable allocates per
// call. The permutation is identical to sort.SliceStable's for any
// deterministic less, so choke decisions are unchanged.
func stableSortPeers(peers []ChokePeer, less func(a, b *ChokePeer) bool) {
	for i := 1; i < len(peers); i++ {
		p := peers[i]
		j := i - 1
		for j >= 0 && less(&p, &peers[j]) {
			peers[j+1] = peers[j]
			j--
		}
		peers[j+1] = p
	}
}

// oracleLeecherChoker is the leecher-state choke algorithm (§II-C.2): every round
// the 3 fastest interested uploaders are unchoked (regular unchoke, RU) and
// every third round a random choked interested peer becomes the optimistic
// unchoke (OU) for the next three rounds.
type oracleLeecherChoker struct {
	// Slots is the total active peer set size; 0 means DefaultUploadSlots.
	Slots int
	// BoostNewcomers points the optimistic unchoke at piece-less peers
	// when any are present (§VI extension).
	BoostNewcomers bool
	round          int
	// optimistic is the current OU peer, or -1.
	optimistic PeerID
	hasOpt     bool
	scratch    oracleScratch
}

func (c *oracleLeecherChoker) Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID {
	slots := c.Slots
	if slots <= 0 {
		slots = DefaultUploadSlots
	}
	regular := slots - 1

	interested := c.scratch.filterInterested(peers)
	// Order by download rate to the local peer, fastest first. Stable
	// tie-break on ID keeps rounds deterministic.
	stableSortPeers(interested, func(a, b *ChokePeer) bool {
		if a.DownloadRate != b.DownloadRate {
			return a.DownloadRate > b.DownloadRate
		}
		return a.ID < b.ID
	})
	unchoke := c.scratch.unchoke[:0]
	for i := 0; i < len(interested) && i < regular; i++ {
		unchoke = append(unchoke, interested[i].ID)
	}

	// Rotate the optimistic unchoke every RoundsPerOptimistic rounds, or
	// when the current one is gone / no longer interested / promoted to a
	// regular slot.
	rotate := c.round%RoundsPerOptimistic == 0
	if !rotate && c.hasOpt {
		if !containsPeer(interested, c.optimistic) || containsID(unchoke, c.optimistic) {
			rotate = true
		}
	}
	if rotate {
		c.hasOpt = false
		cands := c.scratch.cands[:0]
		for _, p := range interested {
			if !containsID(unchoke, p.ID) {
				cands = append(cands, p)
			}
		}
		c.scratch.cands = cands
		if id, ok := pickCandidate(rng, cands, c.BoostNewcomers); ok {
			c.optimistic = id
			c.hasOpt = true
		}
	}
	if c.hasOpt && !containsID(unchoke, c.optimistic) {
		unchoke = append(unchoke, c.optimistic)
	}
	c.round++
	c.scratch.unchoke = unchoke
	return unchoke
}

// oracleSeedChoker is the NEW seed-state algorithm introduced in mainline 4.0.0
// (§II-C.2). Unchoked-and-interested peers are ordered by the time they
// were last unchoked, most recent first. For two 10-second periods the
// first 3 peers are kept and a 4th choked-and-interested peer is unchoked
// at random (seed random unchoke, SRU); every third period the first 4 are
// kept (seed kept unchoked, SKU). Peers therefore rotate through the
// active set and each gets the same expected service time.
type oracleSeedChoker struct {
	// Slots is the active set size; 0 means DefaultUploadSlots.
	Slots int
	// BoostNewcomers points the seed random unchoke at piece-less peers
	// when any are present (§VI extension).
	BoostNewcomers bool
	round          int
	scratch        oracleScratch
	kept           []ChokePeer
}

func (c *oracleSeedChoker) Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID {
	slots := c.Slots
	if slots <= 0 {
		slots = DefaultUploadSlots
	}
	defer func() { c.round++ }()

	interested := c.scratch.filterInterested(peers)
	// Candidates currently unchoked, most recently unchoked first.
	kept := c.kept[:0]
	for _, p := range interested {
		if p.Unchoked {
			kept = append(kept, p)
		}
	}
	c.kept = kept
	stableSortPeers(kept, func(a, b *ChokePeer) bool {
		if a.LastUnchoked != b.LastUnchoked {
			return a.LastUnchoked > b.LastUnchoked
		}
		return a.ID < b.ID
	})

	thirdPeriod := c.round%RoundsPerOptimistic == RoundsPerOptimistic-1
	unchoke := c.scratch.unchoke[:0]
	keepN := slots - 1
	if thirdPeriod {
		keepN = slots
	}
	for i := 0; i < len(kept) && i < keepN; i++ {
		unchoke = append(unchoke, kept[i].ID)
	}
	if !thirdPeriod {
		// SRU: one choked-and-interested peer chosen at random.
		cands := c.scratch.cands[:0]
		for _, p := range interested {
			if !p.Unchoked && !containsID(unchoke, p.ID) {
				cands = append(cands, p)
			}
		}
		c.scratch.cands = cands
		if id, ok := pickCandidate(rng, cands, c.BoostNewcomers); ok {
			unchoke = append(unchoke, id)
		}
	}
	// Fill spare slots (fewer unchoked peers than keepN) with random
	// choked interested peers so the seed never idles with demand present.
	for len(unchoke) < slots {
		cands := c.scratch.cands[:0]
		for _, p := range interested {
			if !containsID(unchoke, p.ID) {
				cands = append(cands, p)
			}
		}
		c.scratch.cands = cands
		id, ok := pickCandidate(rng, cands, c.BoostNewcomers)
		if !ok {
			break
		}
		unchoke = append(unchoke, id)
	}
	c.scratch.unchoke = unchoke
	return unchoke
}

// oracleOldSeedChoker is the pre-4.0.0 seed-state algorithm: identical to the
// leecher algorithm except peers are ordered by our upload rate to them,
// so fast downloaders (including fast free riders) monopolise the seed.
// Kept as the baseline for the A2 ablation.
type oracleOldSeedChoker struct {
	Slots      int
	round      int
	optimistic PeerID
	hasOpt     bool
	scratch    oracleScratch
	candIDs    []PeerID
}

func (c *oracleOldSeedChoker) Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID {
	slots := c.Slots
	if slots <= 0 {
		slots = DefaultUploadSlots
	}
	regular := slots - 1
	interested := c.scratch.filterInterested(peers)
	stableSortPeers(interested, func(a, b *ChokePeer) bool {
		if a.UploadRate != b.UploadRate {
			return a.UploadRate > b.UploadRate
		}
		return a.ID < b.ID
	})
	unchoke := c.scratch.unchoke[:0]
	for i := 0; i < len(interested) && i < regular; i++ {
		unchoke = append(unchoke, interested[i].ID)
	}
	rotate := c.round%RoundsPerOptimistic == 0
	if !rotate && c.hasOpt && (!containsPeer(interested, c.optimistic) || containsID(unchoke, c.optimistic)) {
		rotate = true
	}
	if rotate {
		c.hasOpt = false
		cands := c.candIDs[:0]
		for _, p := range interested {
			if !containsID(unchoke, p.ID) {
				cands = append(cands, p.ID)
			}
		}
		c.candIDs = cands
		if len(cands) > 0 {
			c.optimistic = cands[rng.Intn(len(cands))]
			c.hasOpt = true
		}
	}
	if c.hasOpt && !containsID(unchoke, c.optimistic) {
		unchoke = append(unchoke, c.optimistic)
	}
	c.round++
	c.scratch.unchoke = unchoke
	return unchoke
}

// oracleTitForTatChoker is the bit-level tit-for-tat baseline from the literature
// the paper argues against ([5], [10], [15]): a peer refuses to upload to
// any peer whose byte deficit (uploaded-to minus downloaded-from) exceeds
// DeficitLimit. Within the allowed set the fastest uploaders win the slots.
// Excess capacity is therefore stranded — the behaviour the A3 ablation
// demonstrates.
type oracleTitForTatChoker struct {
	Slots int
	// DeficitLimit is the maximum bytes of unreciprocated upload tolerated
	// before a peer is refused service.
	DeficitLimit int64
	scratch      oracleScratch
}

func (c *oracleTitForTatChoker) Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID {
	slots := c.Slots
	if slots <= 0 {
		slots = DefaultUploadSlots
	}
	allowed := c.scratch.cands[:0]
	for _, p := range peers {
		if p.Interested && p.UploadedTo-p.DownloadedFrom <= c.DeficitLimit {
			allowed = append(allowed, p)
		}
	}
	c.scratch.cands = allowed
	stableSortPeers(allowed, func(a, b *ChokePeer) bool {
		if a.DownloadRate != b.DownloadRate {
			return a.DownloadRate > b.DownloadRate
		}
		return a.ID < b.ID
	})
	unchoke := c.scratch.unchoke[:0]
	for i := 0; i < len(allowed) && i < slots; i++ {
		unchoke = append(unchoke, allowed[i].ID)
	}
	c.scratch.unchoke = unchoke
	return unchoke
}

func containsPeer(peers []ChokePeer, id PeerID) bool {
	for _, p := range peers {
		if p.ID == id {
			return true
		}
	}
	return false
}

// rounder is the part of Choker the oracles implement.
type rounder interface {
	Round(now float64, peers []ChokePeer, rng *rand.Rand) []PeerID
}

// chokerPair drives a production choker and its oracle on twin RNGs,
// beside two more twins of the production choker: shared, whose scratch
// is one ChokeScratch all four shared twins use in turn, and sub, which
// sees only the snapshot's interested rows.
type chokerPair struct {
	name                       string
	got, shared, sub           Choker
	want                       rounder
	rngGot, rngW, rngS, rngSub *rand.Rand
}

// newTestChokers returns the four production chokers, set up alike, each
// with scratch as its Scratch.
func newTestChokers(slots int, boost bool, limit int64, scratch *ChokeScratch) [4]Choker {
	return [4]Choker{
		&LeecherChoker{Slots: slots, BoostNewcomers: boost, Scratch: scratch},
		&SeedChoker{Slots: slots, BoostNewcomers: boost, Scratch: scratch},
		&OldSeedChoker{Slots: slots, Scratch: scratch},
		&TitForTatChoker{Slots: slots, DeficitLimit: limit, Scratch: scratch},
	}
}

// fuzzBytes hands out the fuzz input a byte at a time, zero once spent.
type fuzzBytes struct {
	b []byte
	i int
}

func (r *fuzzBytes) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *fuzzBytes) done() bool { return r.i >= len(r.b) }

// checkChokeRounds decodes data into a setup and a sequence of snapshots
// and drives all four chokers against their oracles round by round. Rates,
// unchoke times and piece counts come from a few values each, so ties are
// the rule; peers join, leave, lose interest and reorder, and the current
// optimistic unchoke is singled out to leave or lose interest. Two
// contracts of Choker are checked on the way: chokers that share one
// ChokeScratch over interleaved rounds match chokers with private scratch,
// and a Round over the interested rows alone matches a Round over the
// full snapshot, unchokes and RNG draws both.
func checkChokeRounds(t *testing.T, data []byte) {
	in := &fuzzBytes{b: data}
	setup := in.next()
	slots := 1 + int(setup%6)
	boost := setup&0x80 != 0
	seed := int64(in.next())
	limit := int64(in.next()%4) * 1000
	n := int(in.next() % 24)

	got := newTestChokers(slots, boost, limit, nil)
	shared := newTestChokers(slots, boost, limit, new(ChokeScratch))
	sub := newTestChokers(slots, boost, limit, nil)
	leech := got[0].(*LeecherChoker)
	pairs := []chokerPair{
		{name: "leecher", want: &oracleLeecherChoker{Slots: slots, BoostNewcomers: boost}},
		{name: "seed", want: &oracleSeedChoker{Slots: slots, BoostNewcomers: boost}},
		{name: "old-seed", want: &oracleOldSeedChoker{Slots: slots}},
		{name: "tit-for-tat", want: &oracleTitForTatChoker{Slots: slots, DeficitLimit: limit}},
	}
	for i := range pairs {
		pr := &pairs[i]
		pr.got, pr.shared, pr.sub = got[i], shared[i], sub[i]
		pr.rngGot = rand.New(rand.NewSource(seed))
		pr.rngW = rand.New(rand.NewSource(seed))
		pr.rngS = rand.New(rand.NewSource(seed))
		pr.rngSub = rand.New(rand.NewSource(seed))
	}

	peers := make([]ChokePeer, n)
	nextID := PeerID(0)
	for i := range peers {
		peers[i] = ChokePeer{ID: nextID, Interested: true}
		nextID++
	}
	// drop removes the peer with id from the snapshot, keeping order.
	drop := func(id PeerID) {
		peers = slices.DeleteFunc(peers, func(p ChokePeer) bool { return p.ID == id })
	}
	var seedUnchoke []PeerID
	for round := 0; round < 300 && !in.done(); round++ {
		now := float64(round) * ChokeInterval
		switch op := in.next(); op % 8 {
		case 0:
			if len(peers) > 0 {
				drop(peers[int(in.next())%len(peers)].ID)
			}
		case 1:
			peers = append(peers, ChokePeer{ID: nextID, Interested: true})
			nextID++
		case 2:
			if len(peers) > 0 {
				k := int(in.next()) % len(peers)
				peers = append(peers[k:], peers[:k]...)
			}
		case 3:
			if leech.hasOpt {
				drop(leech.optimistic)
			}
		case 4:
			if leech.hasOpt {
				for i := range peers {
					if peers[i].ID == leech.optimistic {
						peers[i].Interested = false
					}
				}
			}
		}
		for i := range peers {
			p := &peers[i]
			a, b := in.next(), in.next()
			p.DownloadRate = float64(a&3) * 1000
			p.UploadRate = float64(a>>2&3) * 1000
			if a&0x10 != 0 {
				p.Interested = !p.Interested
			}
			p.LastUnchoked = float64(a>>5&3) * ChokeInterval
			p.Unchoked = slices.Contains(seedUnchoke, p.ID) != (b&1 != 0)
			p.UploadedTo += int64(b>>1&3) * 1000
			p.DownloadedFrom += int64(b>>3&3) * 1000
			p.RemotePieces = [4]int{0, 0, 5, 10}[b>>5&3]
		}
		before := slices.Clone(peers)
		interested := slices.DeleteFunc(slices.Clone(peers), func(p ChokePeer) bool { return !p.Interested })
		for i := range pairs {
			pr := &pairs[i]
			got := slices.Clone(pr.got.Round(now, peers, pr.rngGot))
			want := pr.want.Round(now, slices.Clone(peers), pr.rngW)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d %s (slots %d, boost %v): unchoke %v, oracle %v\nsnapshot %+v",
					round, pr.name, slots, boost, got, want, peers)
			}
			if sh := pr.shared.Round(now, peers, pr.rngS); !slices.Equal(sh, got) {
				t.Fatalf("round %d %s: unchoke %v with a shared scratch, %v with a private one",
					round, pr.name, sh, got)
			}
			if sb := pr.sub.Round(now, interested, pr.rngSub); !slices.Equal(sb, got) {
				t.Fatalf("round %d %s: unchoke %v over the interested rows, %v over the full snapshot\nsnapshot %+v",
					round, pr.name, sb, got, peers)
			}
			g, w, sh, sb := pr.rngGot.Int63(), pr.rngW.Int63(), pr.rngS.Int63(), pr.rngSub.Int63()
			if g != w || sh != g || sb != g {
				t.Fatalf("round %d %s: RNG streams diverged (%d, oracle %d, shared scratch %d, interested rows %d)",
					round, pr.name, g, w, sh, sb)
			}
			if !slices.Equal(peers, before) {
				t.Fatalf("round %d %s: Round modified its snapshot", round, pr.name)
			}
			if pr.name == "seed" {
				seedUnchoke = got
			}
		}
	}
}

// FuzzChokeRounds checks the selection-based chokers against the
// sort-based oracle over fuzzed snapshot sequences.
func FuzzChokeRounds(f *testing.F) {
	f.Add([]byte{0x03, 7, 1, 12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x85, 42, 2, 20, 3, 0xff, 0x00, 0x21, 0x42, 4, 0x13, 0x37, 1})
	f.Add(bytes.Repeat([]byte{0x80, 0x11, 0x23, 0x05}, 64))
	f.Fuzz(checkChokeRounds)
}

// TestChokeRoundsMatchOracle runs checkChokeRounds over a fixed batch of
// random inputs, so every plain test run covers far more snapshot
// sequences than the fuzz seeds alone.
func TestChokeRoundsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 4+rng.Intn(2000))
		rng.Read(data)
		checkChokeRounds(t, data)
	}
}
