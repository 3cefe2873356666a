package core

import (
	"math/rand"
	"testing"
)

func TestLeecherChokerBoostNewcomers(t *testing.T) {
	// One peer has zero pieces; with BoostNewcomers the optimistic unchoke
	// must always land on it.
	c := &LeecherChoker{BoostNewcomers: true}
	rng := rand.New(rand.NewSource(1))
	peers := mkPeers(10)
	for i := range peers {
		peers[i].RemotePieces = 100
	}
	peers[2].RemotePieces = 0
	peers[2].DownloadRate = 0 // never a regular-unchoke winner
	for round := 0; round < 9; round++ {
		got := asSet(c.Round(float64(round)*ChokeInterval, peers, rng))
		if !got[2] {
			t.Fatalf("round %d: newcomer not optimistically unchoked: %v", round, got)
		}
	}
}

func TestLeecherChokerBoostFallsBackWithoutNewcomers(t *testing.T) {
	c := &LeecherChoker{BoostNewcomers: true}
	rng := rand.New(rand.NewSource(2))
	peers := mkPeers(8)
	for i := range peers {
		peers[i].RemotePieces = 50
	}
	got := c.Round(0, peers, rng)
	if len(got) != 4 {
		t.Fatalf("unchoked %d, want 4", len(got))
	}
}

func TestSeedChokerBoostNewcomers(t *testing.T) {
	c := &SeedChoker{BoostNewcomers: true}
	rng := rand.New(rand.NewSource(3))
	peers := make([]ChokePeer, 10)
	for i := range peers {
		peers[i] = ChokePeer{ID: PeerID(i), Interested: true, RemotePieces: 10}
	}
	peers[7].RemotePieces = 0
	// Round 0 is an SRU round: the newcomer must win the random slot.
	got := asSet(c.Round(0, peers, rng))
	if !got[7] {
		t.Fatalf("SRU did not pick the newcomer: %v", got)
	}
}

func TestPickCandidateEmpty(t *testing.T) {
	// No interested peer outside the unchoke set: no pick, and no draw.
	rng := rand.New(rand.NewSource(1))
	peers := []ChokePeer{{ID: 1, Interested: true}, {ID: 2}}
	var s ChokeScratch
	for _, ranked := range []bool{true, false} {
		if _, ok := s.draw(rng, peers, []PeerID{1}, false, ranked, true); ok {
			t.Fatal("picked from empty candidate set")
		}
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(1)).Int63(); got != want {
		t.Fatal("an empty draw consumed the RNG")
	}
}
