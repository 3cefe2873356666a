package client

import (
	"bytes"
	"testing"
	"time"

	"rarestfirst/internal/adversary"
	"rarestfirst/internal/trace"
)

// TestPoisonerBannedMidTransfer: a leecher downloading from a pure
// poisoner detects the hash failure, bans the sole contributor
// mid-transfer, and completes the re-download from an honest seed added
// afterwards — the requeued blocks must be re-requested, not lost.
func TestPoisonerBannedMidTransfer(t *testing.T) {
	m, content := makeTorrent(t, 256<<10, "") // 4 pieces of 64 KiB
	poisoner, err := New(Options{
		Meta:          m,
		Content:       content,
		UploadBps:     8 << 20,
		ChokeInterval: 100 * time.Millisecond,
		Seed:          99,
		Adversary:     adversary.New(adversary.Model{Name: "pure-poison", PoisonRate: 1}, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := poisoner.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer poisoner.Stop()

	leech, err := New(Options{
		Meta:          m,
		Trace:         trace.NewCollector(0),
		UploadBps:     8 << 20,
		ChokeInterval: 100 * time.Millisecond,
		Seed:          7,
		BanFor:        time.Hour, // the ban must outlive the test
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer leech.Stop()

	leech.AddPeer(poisoner.Addr())
	waitFault(t, leech, "piece_hash_fail", 1, 20*time.Second)
	waitFault(t, leech, "peer_banned_poison", 1, 20*time.Second)
	if n := faultCount(leech, "wasted_bytes"); n <= 0 {
		t.Fatalf("wasted_bytes = %d after a hash failure", n)
	}
	leech.mu.Lock()
	banned := leech.bannedLocked(poisoner.Addr())
	leech.mu.Unlock()
	if !banned {
		t.Fatalf("poisoner %s not banned after sole-contributor hash failure", poisoner.Addr())
	}

	// Honest seed joins; the blocks the ban requeued must complete there.
	seed, err := New(Options{Meta: m, Content: content, UploadBps: 8 << 20, ChokeInterval: 100 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()
	leech.AddPeer(seed.Addr())
	waitComplete(t, 30*time.Second, leech)
	if !bytes.Equal(leech.Bytes(), content) {
		t.Fatal("content mismatch after poisoned transfer recovered")
	}
	// The poisoner corrupted only the copies it sent, never its storage.
	if !bytes.Equal(poisoner.Bytes(), content) {
		t.Fatal("poisoner's own content corrupted by serving poisoned blocks")
	}
}

// TestBannedPoisonerCannotDialBackIn: a poisoner that dialled the leecher
// and got banned dials in again. An inbound peer's address is only its
// ephemeral port, so the ban must hold on its peer ID: the leecher
// refuses the handshake, holds no connection to it and downloads nothing
// more from it.
func TestBannedPoisonerCannotDialBackIn(t *testing.T) {
	m, content := makeTorrent(t, 256<<10, "")
	poisoner, err := New(Options{
		Meta:          m,
		Content:       content,
		UploadBps:     8 << 20,
		ChokeInterval: 100 * time.Millisecond,
		Seed:          99,
		Adversary:     adversary.New(adversary.Model{Name: "pure-poison", PoisonRate: 1}, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := poisoner.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer poisoner.Stop()

	leech, err := New(Options{
		Meta:          m,
		Trace:         trace.NewCollector(0),
		UploadBps:     8 << 20,
		ChokeInterval: 100 * time.Millisecond,
		Seed:          7,
		BanFor:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer leech.Stop()

	poisoner.AddPeer(leech.Addr())
	waitFault(t, leech, "piece_hash_fail", 1, 20*time.Second)
	waitFault(t, leech, "peer_banned_poison", 1, 20*time.Second)

	connected := func() bool {
		leech.mu.Lock()
		defer leech.mu.Unlock()
		for _, pc := range leech.connOrder {
			if pc.peerID == poisoner.PeerID() {
				return true
			}
		}
		return false
	}
	poisoner.AddPeer(leech.Addr())
	// The re-dial lands within milliseconds on loopback, and a
	// poisoned piece follows within a few choke rounds; watch for both.
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if connected() {
			t.Fatal("leecher accepted the banned poisoner's inbound connection")
		}
		if n := faultCount(leech, "piece_hash_fail"); n != 1 {
			t.Fatalf("piece_hash_fail = %d after the banned poisoner dialled back in, want 1", n)
		}
	}
}

// TestPoisonerNoBanMeasurementMode: with NoPoisonBan the leecher counts
// hash failures and wasted bytes but never bans, and still completes once
// honest capacity exists.
func TestPoisonerNoBanMeasurementMode(t *testing.T) {
	m, content := makeTorrent(t, 256<<10, "")
	poisoner, err := New(Options{
		Meta:          m,
		Content:       content,
		UploadBps:     8 << 20,
		ChokeInterval: 100 * time.Millisecond,
		Seed:          99,
		Adversary:     adversary.New(adversary.Model{Name: "half-poison", PoisonRate: 0.5}, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := poisoner.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer poisoner.Stop()

	leech, err := New(Options{
		Meta:          m,
		Trace:         trace.NewCollector(0),
		UploadBps:     8 << 20,
		ChokeInterval: 100 * time.Millisecond,
		Seed:          7,
		NoPoisonBan:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := leech.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer leech.Stop()

	leech.AddPeer(poisoner.Addr())
	waitFault(t, leech, "piece_hash_fail", 1, 30*time.Second)
	if n := faultCount(leech, "wasted_bytes"); n <= 0 {
		t.Fatalf("wasted_bytes = %d, want > 0 in measurement mode", n)
	}

	seed, err := New(Options{Meta: m, Content: content, UploadBps: 8 << 20, ChokeInterval: 100 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()
	leech.AddPeer(seed.Addr())
	waitComplete(t, 30*time.Second, leech)
	if !bytes.Equal(leech.Bytes(), content) {
		t.Fatal("content mismatch")
	}
	if n := faultCount(leech, "peer_banned_poison"); n != 0 {
		t.Fatalf("peer_banned_poison = %d with NoPoisonBan set", n)
	}
	leech.mu.Lock()
	banned := leech.bannedLocked(poisoner.Addr())
	leech.mu.Unlock()
	if banned {
		t.Fatal("poisoner banned despite NoPoisonBan")
	}
}

// TestLiarSnubbedAfterFakeHaveTimeouts: a bitfield liar advertises every
// piece, baits requests, and serves nothing; the victim must expire the
// requests as fake-HAVE timeouts, snub the liar, and recover from an
// honest seed.
func TestLiarSnubbedAfterFakeHaveTimeouts(t *testing.T) {
	m, content := makeTorrent(t, 256<<10, "")
	liar, err := New(Options{
		Meta:          m, // no content: a leecher that lies about what it has
		UploadBps:     8 << 20,
		ChokeInterval: 100 * time.Millisecond,
		Seed:          99,
		Adversary:     adversary.New(adversary.Model{Name: "liar", FakeHaves: true}, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := liar.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer liar.Stop()

	victim, err := New(Options{
		Meta:           m,
		Trace:          trace.NewCollector(0),
		UploadBps:      8 << 20,
		ChokeInterval:  100 * time.Millisecond,
		Seed:           7,
		RequestTimeout: 200 * time.Millisecond,
		BanFor:         time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer victim.Stop()

	victim.AddPeer(liar.Addr())
	waitFault(t, victim, "fake_have_timeout", 1, 20*time.Second)
	waitFault(t, victim, "peer_snubbed", 1, 20*time.Second)
	victim.mu.Lock()
	banned := victim.bannedLocked(liar.Addr())
	victim.mu.Unlock()
	if !banned {
		t.Fatalf("liar %s not banned after snub", liar.Addr())
	}

	seed, err := New(Options{Meta: m, Content: content, UploadBps: 8 << 20, ChokeInterval: 100 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()
	victim.AddPeer(seed.Addr())
	waitComplete(t, 30*time.Second, victim)
	if !bytes.Equal(victim.Bytes(), content) {
		t.Fatal("content mismatch after liar recovery")
	}
}

// TestFlooderTripsAbuseLimit: a request flooder that ignores choke state
// must cross floodAbuseLimit on the seed, get banned and disconnected.
func TestFlooderTripsAbuseLimit(t *testing.T) {
	m, content := makeTorrent(t, 256<<10, "")
	seed, err := New(Options{
		Meta:      m,
		Content:   content,
		Trace:     trace.NewCollector(0),
		UploadBps: 8 << 20,
		Seed:      3,
		// Default 10s choke interval: the flooder stays choked throughout.
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer seed.Stop()

	flooder, err := New(Options{
		Meta:          m,
		UploadBps:     8 << 20,
		ChokeInterval: 100 * time.Millisecond,
		Seed:          99,
		Adversary:     adversary.New(adversary.Model{Name: "flood", FloodRPS: 500}, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := flooder.Start("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	defer flooder.Stop()

	flooder.AddPeer(seed.Addr())
	waitFault(t, seed, "request_flood", 1, 20*time.Second)
	// The flooder's address is banned on the seed.
	time.Sleep(50 * time.Millisecond)
	seed.mu.Lock()
	nBanned := len(seed.banned)
	seed.mu.Unlock()
	if nBanned == 0 {
		t.Fatal("flooder not banned after tripping the abuse limit")
	}
}
