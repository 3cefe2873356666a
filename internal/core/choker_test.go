package core

import (
	"math/rand"
	"testing"
)

// mkPeers builds n interested peers with DownloadRate = 1000*(id+1), so
// higher IDs upload faster to us.
func mkPeers(n int) []ChokePeer {
	peers := make([]ChokePeer, n)
	for i := range peers {
		peers[i] = ChokePeer{ID: PeerID(i), Interested: true, DownloadRate: float64(1000 * (i + 1))}
	}
	return peers
}

func asSet(ids []PeerID) map[PeerID]bool {
	m := map[PeerID]bool{}
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestLeecherChokerUnchokesFastestThree(t *testing.T) {
	c := NewLeecherChoker()
	rng := rand.New(rand.NewSource(1))
	peers := mkPeers(10)
	got := asSet(c.Round(0, peers, rng))
	// The three fastest (9, 8, 7) must be unchoked; plus one optimistic.
	for _, id := range []PeerID{9, 8, 7} {
		if !got[id] {
			t.Fatalf("fast peer %d not unchoked: %v", id, got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("unchoked %d peers, want 4", len(got))
	}
}

func TestLeecherChokerIgnoresUninterested(t *testing.T) {
	c := NewLeecherChoker()
	rng := rand.New(rand.NewSource(2))
	peers := mkPeers(6)
	peers[5].Interested = false // fastest peer not interested
	got := asSet(c.Round(0, peers, rng))
	if got[5] {
		t.Fatal("unchoked an uninterested peer")
	}
	for _, id := range []PeerID{4, 3, 2} {
		if !got[id] {
			t.Fatalf("peer %d missing: %v", id, got)
		}
	}
}

func TestLeecherChokerOptimisticRotation(t *testing.T) {
	// The optimistic unchoke must change only every third round (30 s) and
	// must always come from outside the regular set.
	c := NewLeecherChoker()
	rng := rand.New(rand.NewSource(3))
	peers := mkPeers(20)
	regular := map[PeerID]bool{19: true, 18: true, 17: true}
	var optHistory []PeerID
	for round := 0; round < 30; round++ {
		got := c.Round(float64(round)*ChokeInterval, peers, rng)
		var opt PeerID = -1
		for _, id := range got {
			if !regular[id] {
				if opt != -1 {
					t.Fatalf("round %d: two optimistic peers", round)
				}
				opt = id
			}
		}
		if opt == -1 {
			t.Fatalf("round %d: no optimistic unchoke", round)
		}
		optHistory = append(optHistory, opt)
	}
	// Within each 3-round window the optimistic peer is constant.
	for i := 0; i+2 < len(optHistory); i += 3 {
		if optHistory[i] != optHistory[i+1] || optHistory[i] != optHistory[i+2] {
			t.Fatalf("optimistic changed mid-window: %v", optHistory[i:i+3])
		}
	}
	// Across windows it must rotate eventually (with 17 candidates the
	// probability of 10 identical draws is negligible).
	distinct := map[PeerID]bool{}
	for _, id := range optHistory {
		distinct[id] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("optimistic unchoke never rotated: %v", optHistory)
	}
}

func TestLeecherChokerFewPeers(t *testing.T) {
	c := NewLeecherChoker()
	rng := rand.New(rand.NewSource(4))
	got := c.Round(0, mkPeers(2), rng)
	if len(got) != 2 {
		t.Fatalf("unchoked %d of 2 peers", len(got))
	}
	if got2 := c.Round(10, nil, rng); len(got2) != 0 {
		t.Fatalf("unchoked %v with no peers", got2)
	}
}

func TestLeecherChokerSlotsOverride(t *testing.T) {
	c := &LeecherChoker{Slots: 6}
	rng := rand.New(rand.NewSource(5))
	got := c.Round(0, mkPeers(12), rng)
	if len(got) != 6 {
		t.Fatalf("unchoked %d, want 6", len(got))
	}
}

func TestSeedChokerCycle(t *testing.T) {
	// Rounds 0,1 (mod 3): keep 3 most-recently-unchoked + 1 random new.
	// Round 2 (mod 3): keep 4.
	c := NewSeedChoker()
	rng := rand.New(rand.NewSource(6))
	peers := make([]ChokePeer, 8)
	for i := range peers {
		peers[i] = ChokePeer{ID: PeerID(i), Interested: true}
	}
	// Mark 0..3 unchoked with increasing recency.
	for i := 0; i <= 3; i++ {
		peers[i].Unchoked = true
		peers[i].LastUnchoked = float64(10 * i)
	}
	got := asSet(c.Round(40, peers, rng))
	// Most recently unchoked are 3, 2, 1; kept. Peer 0 (oldest) loses its
	// slot to a random choked peer (SRU) — exactly the paper's "each new
	// SRU peer taking an unchoke slot off the oldest SKU peer".
	for _, id := range []PeerID{3, 2, 1} {
		if !got[id] {
			t.Fatalf("SKU peer %d dropped: %v", id, got)
		}
	}
	if got[0] {
		t.Fatalf("oldest SKU peer kept in SRU round: %v", got)
	}
	if len(got) != 4 {
		t.Fatalf("unchoked %d, want 4", len(got))
	}
	var sru PeerID = -1
	for id := range got {
		if id > 3 {
			sru = id
		}
	}
	if sru == -1 {
		t.Fatalf("no SRU peer: %v", got)
	}

	// Second round (round index 1): same structure.
	for i := range peers {
		peers[i].Unchoked = got[peers[i].ID]
		if got[peers[i].ID] {
			peers[i].LastUnchoked = 40
		}
	}
	peers[int(sru)].LastUnchoked = 40
	got2 := asSet(c.Round(50, peers, rng))
	if len(got2) != 4 {
		t.Fatalf("round 2: unchoked %d", len(got2))
	}

	// Third round (round index 2): keep the 4 first, no SRU.
	for i := range peers {
		peers[i].Unchoked = got2[peers[i].ID]
		if got2[peers[i].ID] {
			peers[i].LastUnchoked = 50
		}
	}
	got3 := asSet(c.Round(60, peers, rng))
	for id := range got2 {
		if !got3[id] {
			t.Fatalf("third period replaced %d: %v -> %v", id, got2, got3)
		}
	}
}

func TestSeedChokerEqualServiceOverTime(t *testing.T) {
	// Drive the seed choker for many rounds over 12 always-interested
	// peers and count unchoke-rounds per peer: the spread must be small
	// (the new algorithm's equal-service property, Fig 11).
	c := NewSeedChoker()
	rng := rand.New(rand.NewSource(7))
	n := 12
	peers := make([]ChokePeer, n)
	for i := range peers {
		peers[i] = ChokePeer{ID: PeerID(i), Interested: true}
	}
	service := make([]int, n)
	for round := 0; round < 600; round++ {
		now := float64(round) * ChokeInterval
		got := asSet(c.Round(now, peers, rng))
		for i := range peers {
			un := got[peers[i].ID]
			if un {
				service[i]++
				if !peers[i].Unchoked {
					// Stamp only the choked->unchoked transition.
					peers[i].LastUnchoked = now
				}
			}
			peers[i].Unchoked = un
		}
	}
	minS, maxS := service[0], service[0]
	for _, s := range service {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if minS == 0 {
		t.Fatalf("a peer was never served: %v", service)
	}
	if float64(maxS) > 2.5*float64(minS) {
		t.Fatalf("service too unequal: min=%d max=%d (%v)", minS, maxS, service)
	}
}

func TestOldSeedChokerFavorsFastDownloaders(t *testing.T) {
	// The old algorithm orders by upload rate from the local peer: a fast
	// peer (e.g. a fast free rider) keeps its slot forever.
	c := NewOldSeedChoker()
	rng := rand.New(rand.NewSource(8))
	n := 10
	peers := make([]ChokePeer, n)
	for i := range peers {
		peers[i] = ChokePeer{ID: PeerID(i), Interested: true, UploadRate: float64(i * 1000)}
	}
	kept := 0
	for round := 0; round < 60; round++ {
		got := asSet(c.Round(float64(round)*ChokeInterval, peers, rng))
		if got[9] && got[8] && got[7] {
			kept++
		}
	}
	if kept != 60 {
		t.Fatalf("fast peers held slots in %d/60 rounds, want 60", kept)
	}
}

func TestTitForTatRefusesDebtors(t *testing.T) {
	c := NewTitForTatChoker(1000)
	rng := rand.New(rand.NewSource(9))
	peers := []ChokePeer{
		{ID: 0, Interested: true, UploadedTo: 5000, DownloadedFrom: 100, DownloadRate: 9e9}, // debtor
		{ID: 1, Interested: true, UploadedTo: 500, DownloadedFrom: 0},                       // within limit
		{ID: 2, Interested: true, UploadedTo: 0, DownloadedFrom: 3000},                      // creditor
		{ID: 3, Interested: false, UploadedTo: 0, DownloadedFrom: 0},                        // not interested
	}
	got := asSet(c.Round(0, peers, rng))
	if got[0] {
		t.Fatal("debtor unchoked despite deficit")
	}
	if !got[1] || !got[2] {
		t.Fatalf("compliant peers not unchoked: %v", got)
	}
	if got[3] {
		t.Fatal("uninterested peer unchoked")
	}
}

func TestNeverUnchoke(t *testing.T) {
	if got := (NeverUnchoke{}).Round(0, mkPeers(5), rand.New(rand.NewSource(1))); len(got) != 0 {
		t.Fatalf("free rider unchoked %v", got)
	}
}

func TestChokerNames(t *testing.T) {
	for want, c := range map[string]Choker{
		"choke-leecher":  NewLeecherChoker(),
		"choke-seed-new": NewSeedChoker(),
		"choke-seed-old": NewOldSeedChoker(),
		"tit-for-tat":    NewTitForTatChoker(0),
		"free-rider":     NeverUnchoke{},
	} {
		if c.Name() != want {
			t.Errorf("Name = %q, want %q", c.Name(), want)
		}
	}
}

func TestLeecherChokerDeterministicGivenSeed(t *testing.T) {
	run := func() [][]PeerID {
		c := NewLeecherChoker()
		rng := rand.New(rand.NewSource(42))
		var out [][]PeerID
		for round := 0; round < 12; round++ {
			out = append(out, c.Round(float64(round)*ChokeInterval, mkPeers(15), rng))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("round %d differs", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("round %d differs: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

// TestChokerRoundZeroAlloc pins a warmed round of each choker at zero
// allocations, rotation and random-unchoke rounds included.
func TestChokerRoundZeroAlloc(t *testing.T) {
	peers := mkPeers(60)
	for i := range peers {
		peers[i].Unchoked = i%5 == 0
		peers[i].LastUnchoked = float64(i % 7)
		peers[i].RemotePieces = i % 3
		peers[i].UploadRate = float64(i % 4)
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []Choker{
		&LeecherChoker{BoostNewcomers: true},
		&SeedChoker{BoostNewcomers: true},
		NewOldSeedChoker(),
		NewTitForTatChoker(1 << 20),
	} {
		now := 0.0
		round := func() {
			c.Round(now, peers, rng)
			now += ChokeInterval
		}
		for i := 0; i < 2*RoundsPerOptimistic; i++ {
			round()
		}
		if n := testing.AllocsPerRun(3*RoundsPerOptimistic, round); n != 0 {
			t.Errorf("%s: %v allocations per warmed round, want 0", c.Name(), n)
		}
	}
}
