package swarm

import (
	"strings"
	"testing"

	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/core"
)

// advConfig is tinyConfig with Byzantine leechers mixed in and the
// invariant checker on (every adversarial run here doubles as an
// invariant audit).
func advConfig(adv Adversary) Config {
	cfg := tinyConfig()
	cfg.InitialLeechers = 12
	cfg.Adversary = &adv
	cfg.Invariants = true
	return cfg
}

func TestAdversaryPoisonBansAndLocalCompletes(t *testing.T) {
	cfg := advConfig(Adversary{Fraction: 0.3, PoisonRate: 0.5})
	res := New(cfg).Run()
	if !res.LocalCompleted {
		t.Fatal("local peer did not complete against poisoners with banning on")
	}
	fc := res.Collector.FaultCounts
	if fc["swarm_piece_hash_fail"] == 0 {
		t.Fatalf("no hash failures recorded: %v", fc)
	}
	if fc["swarm_wasted_bytes"] == 0 {
		t.Fatalf("no wasted bytes recorded: %v", fc)
	}
	if fc["swarm_peer_banned_poison"] == 0 {
		t.Fatalf("no poison bans recorded: %v", fc)
	}
}

func TestAdversaryPoisonNoBanMeasurementMode(t *testing.T) {
	cfg := advConfig(Adversary{Fraction: 0.3, PoisonRate: 0.5, NoBan: true})
	res := New(cfg).Run()
	fc := res.Collector.FaultCounts
	if fc["swarm_peer_banned_poison"] != 0 {
		t.Fatalf("bans recorded in NoBan mode: %v", fc)
	}
	if fc["swarm_wasted_bytes"] == 0 {
		t.Fatalf("no wasted bytes recorded: %v", fc)
	}
	// Unbanned poisoners keep wasting bandwidth: strictly more damage than
	// the banning run on the same seed.
	banCfg := advConfig(Adversary{Fraction: 0.3, PoisonRate: 0.5})
	banRes := New(banCfg).Run()
	if fc["swarm_piece_hash_fail"] <= banRes.Collector.FaultCounts["swarm_piece_hash_fail"] {
		t.Fatalf("NoBan hash fails (%d) not above banning run (%d)",
			fc["swarm_piece_hash_fail"], banRes.Collector.FaultCounts["swarm_piece_hash_fail"])
	}
}

func TestAdversaryLiarTimesOutAndLocalCompletes(t *testing.T) {
	cfg := advConfig(Adversary{Fraction: 0.3, FakeHaves: true})
	res := New(cfg).Run()
	if !res.LocalCompleted {
		t.Fatal("local peer did not complete against bitfield liars")
	}
	fc := res.Collector.FaultCounts
	if fc["swarm_fake_have_timeout"] == 0 {
		t.Fatalf("no fake-HAVE timeouts recorded: %v", fc)
	}
	if fc["swarm_peer_snubbed"] == 0 {
		t.Fatalf("no liar snubs recorded: %v", fc)
	}
}

func TestAdversaryFloodAnnounces(t *testing.T) {
	cfg := advConfig(Adversary{Fraction: 0.3, Flood: true})
	res := New(cfg).Run()
	if !res.LocalCompleted {
		t.Fatal("local peer did not complete against announce flooders")
	}
	if res.Collector.FaultCounts["swarm_flood_announce"] == 0 {
		t.Fatalf("no flood announces recorded: %v", res.Collector.FaultCounts)
	}
}

func TestAdversaryRunsAreDeterministic(t *testing.T) {
	run := func() (float64, int, int) {
		cfg := advConfig(Adversary{Fraction: 0.3, PoisonRate: 0.5, FakeHaves: true})
		res := New(cfg).Run()
		return res.LocalDownloadTime, res.FinishedContrib,
			res.Collector.FaultCounts["swarm_piece_hash_fail"]
	}
	t1, f1, h1 := run()
	t2, f2, h2 := run()
	if t1 != t2 || f1 != f2 || h1 != h2 {
		t.Fatalf("adversarial runs diverge: (%f,%d,%d) vs (%f,%d,%d)", t1, f1, h1, t2, f2, h2)
	}
}

func TestInvariantCheckerIsPureRead(t *testing.T) {
	// A run with the checker on must produce the identical trajectory to
	// one with it off — the checker is observation, never intervention.
	base := tinyConfig()
	r1 := New(base).Run()
	checked := tinyConfig()
	checked.Invariants = true
	r2 := New(checked).Run()
	if r1.LocalDownloadTime != r2.LocalDownloadTime || r1.FinishedContrib != r2.FinishedContrib {
		t.Fatalf("invariant checker perturbed the run: (%f,%d) vs (%f,%d)",
			r1.LocalDownloadTime, r1.FinishedContrib, r2.LocalDownloadTime, r2.FinishedContrib)
	}
}

func TestInvariantCheckerDetectsCorruption(t *testing.T) {
	// Seed a healthy finished swarm, corrupt its state by hand, and check
	// the auditor actually panics — a checker that cannot fail is no
	// checker.
	cfg := tinyConfig()
	cfg.Invariants = true
	s := New(cfg)
	s.Run()

	expectPanic := func(name, fragment string, corrupt func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: checker accepted corrupted state", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, fragment) {
				t.Fatalf("%s: panic %v does not mention %q", name, r, fragment)
			}
		}()
		corrupt()
		s.checkInvariants(true)
	}

	// Availability drift: bump a per-peer availability counter without a
	// matching HAVE.
	expectPanic("avail drift", "avail", func() { s.local.avail.Inc(0) })
}

// TestInvariantCheckerDetectsDirtyFreeConn checks the free-list audit: a
// finished run's free conns pass it (the run itself ends with the full
// sweep), and a free conn that still holds a stamp or a reference fails.
func TestInvariantCheckerDetectsDirtyFreeConn(t *testing.T) {
	cfg := tinyConfig()
	cfg.Invariants = true
	s := New(cfg)
	s.Run()
	if len(s.connFree) == 0 {
		t.Fatal("the run left no conn on the free list")
	}
	c := s.connFree[len(s.connFree)-1]
	for name, dirty := range map[string]func(){
		"gen":      func() { c.gen = 1 },
		"owner":    func() { c.owner = s.local },
		"mirror":   func() { c.mirror = c },
		"closed":   func() { c.closed = true },
		"remoteID": func() { c.remoteID = s.local.id + 1 },
	} {
		*c = conn{}
		dirty()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "swarm invariant: free conn") {
					t.Errorf("%s: checker accepted a dirty free conn (panic %q)", name, msg)
				}
			}()
			s.checkInvariants(true)
		}()
	}
	*c = conn{}
	s.checkInvariants(true)
}

func TestInvariantCheckerDetectsBannedConnection(t *testing.T) {
	// Stop mid-download so live leecher connections survive the run (a
	// completed tiny swarm is all seeds, and seed pairs disconnect).
	cfg := tinyConfig()
	cfg.Invariants = true
	cfg.Duration = 300
	s := New(cfg)
	s.Run()

	// Find any surviving connection and ban the far end without the
	// disconnect that banPeer would have done.
	var victim *Peer
	for _, p := range s.peers {
		if !p.departed && len(p.connList) > 0 {
			victim = p
			break
		}
	}
	if victim == nil {
		t.Skip("no live connections at run end")
	}
	other := victim.connList[0].mirror.owner
	victim.banned = map[core.PeerID]struct{}{other.id: {}}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("checker accepted a live connection to a banned peer")
		}
	}()
	s.checkInvariants(true)
}

// TestInvariantCheckerDetectsSlabOverrun checks the storage audit: a real
// run passes it (the run ends with the full sweep), and a peer whose
// connList, bitfield words or copy counts could reach past its slab
// piece, or whose interrupted-piece list repeats a piece or holds one it
// has, fails it.
func TestInvariantCheckerDetectsSlabOverrun(t *testing.T) {
	cfg := tinyConfig()
	cfg.Invariants = true
	cfg.Duration = 300 // stop mid-download: leechers own some pieces, lack others
	s := New(cfg)
	s.Run()
	var p *Peer
	for _, q := range s.peers {
		if !q.departed && !q.isLocal && !q.seed && q.have.Count() > 0 && (p == nil || q.id < p.id) {
			p = q
		}
	}
	if p == nil {
		t.Fatal("no live leecher holds a piece at run end")
	}
	owned, missing := -1, -1
	for i := 0; i < cfg.NumPieces; i++ {
		if p.have.Has(i) {
			owned = i
		} else {
			missing = i
		}
	}
	n, nw := cfg.NumPieces, bitfield.Words(cfg.NumPieces)
	saved := *p
	for name, corrupt := range map[string]func(){
		"connList": func() { p.connList = append(make([]*conn, 0, cfg.MaxPeerSet+1), p.connList...) },
		"have":     func() { p.haveBits = bitfield.Make(make([]uint64, nw, nw+1), n) },
		"inflight": func() { p.inflightBits = bitfield.Make(make([]uint64, nw, nw+1), n) },
		"counts":   func() { p.availIdx = core.MakeAvailability(make([]int, n, n+1)) },
		"repeat": func() {
			p.pieceRemaining = []partialPiece{{piece: int32(missing), rem: 1}, {piece: int32(missing), rem: 2}}
		},
		"owned": func() { p.pieceRemaining = []partialPiece{{piece: int32(owned), rem: 1}} },
	} {
		corrupt()
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "swarm invariant:") {
					t.Errorf("%s: checker accepted a corrupt peer (panic %q)", name, msg)
				}
			}()
			s.checkPeerStructure(p)
		}()
		*p = saved
	}
	s.checkInvariants(true)
}
