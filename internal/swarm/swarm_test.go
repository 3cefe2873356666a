package swarm

import (
	"testing"

	"rarestfirst/internal/metainfo"
)

// tinyConfig is a fast closed swarm: 1 seed, a few leechers, 12 MB content
// (big enough that peers stay resident past the 10 s entropy filter).
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPieces = 48
	cfg.PieceSize = 256 << 10
	cfg.InitialLeechers = 8
	cfg.ArrivalRate = 0
	cfg.LocalJoinTime = 40
	cfg.Duration = 4000
	cfg.InitialSeedUp = 256 << 10
	cfg.SeedLingerMean = 1e9 // seeds never leave: closed system
	return cfg
}

func TestTinySwarmEveryoneCompletes(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg)
	res := s.Run()
	if !res.LocalCompleted {
		t.Fatalf("local peer did not complete (downloaded %d/%d pieces)",
			s.local.downloaded, cfg.NumPieces)
	}
	if res.FinishedContrib != cfg.InitialLeechers {
		t.Fatalf("finished %d of %d leechers", res.FinishedContrib, cfg.InitialLeechers)
	}
	if res.LocalDownloadTime <= 0 {
		t.Fatalf("bad local download time %f", res.LocalDownloadTime)
	}
	// Lower bound: the local peer must download NumPieces*PieceSize bytes;
	// with every peer's download uncapped the binding constraint is the
	// swarm's upload capacity, so just sanity-check positivity and that
	// it beats a degenerate serial bound.
	if res.LocalDownloadTime > cfg.Duration {
		t.Fatalf("download time %f exceeds duration", res.LocalDownloadTime)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (float64, int, int) {
		cfg := tinyConfig()
		res := New(cfg).Run()
		return res.LocalDownloadTime, res.FinishedContrib, len(res.Collector.PieceTimes)
	}
	t1, f1, p1 := run()
	t2, f2, p2 := run()
	if t1 != t2 || f1 != f2 || p1 != p2 {
		t.Fatalf("runs diverge: (%f,%d,%d) vs (%f,%d,%d)", t1, f1, p1, t2, f2, p2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := tinyConfig()
	r1 := New(cfg).Run()
	cfg.Seed = 99
	r2 := New(cfg).Run()
	if r1.LocalDownloadTime == r2.LocalDownloadTime {
		t.Fatal("different seeds produced identical download times (suspicious)")
	}
}

func TestCollectorObservables(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg)
	res := s.Run()
	col := res.Collector
	// Piece times: one per piece.
	if len(col.PieceTimes) != cfg.NumPieces {
		t.Fatalf("recorded %d piece completions, want %d", len(col.PieceTimes), cfg.NumPieces)
	}
	// Block times: one per block.
	geo := cfg.Geometry()
	if len(col.BlockTimes) != geo.TotalBlocks() {
		t.Fatalf("recorded %d blocks, want %d", len(col.BlockTimes), geo.TotalBlocks())
	}
	// Monotone nondecreasing arrival times.
	for i := 1; i < len(col.PieceTimes); i++ {
		if col.PieceTimes[i] < col.PieceTimes[i-1] {
			t.Fatal("piece times not monotone")
		}
	}
	// The local peer became a seed.
	if col.SeededAt() < 0 {
		t.Fatal("no seed_state event")
	}
	// Samples cover the run at the configured cadence.
	if len(col.Samples) < int(cfg.Duration/sampleEvery/2) {
		t.Fatalf("only %d samples", len(col.Samples))
	}
	// Records exist and residency is positive.
	recs := col.Records()
	if len(recs) == 0 {
		t.Fatal("no peer records")
	}
	for _, r := range recs {
		if r.Residency <= 0 {
			t.Fatalf("record %d has residency %f", r.ID, r.Residency)
		}
	}
}

func TestLocalDownloadByteConservation(t *testing.T) {
	cfg := tinyConfig()
	s := New(cfg)
	res := s.Run()
	var down int64
	for _, r := range res.Collector.AllRecords() {
		down += r.DownloadedLS + r.DownloadedSS
	}
	want := int64(cfg.NumPieces) * int64(cfg.PieceSize)
	// The local peer downloads every byte exactly once, except end-game
	// duplicates: bounded by one duplicate block per peer-set member plus
	// partial progress of cancelled duplicates — allow 5% + 8 blocks.
	slack := want/20 + int64(8*metainfo.BlockSize)
	if down < want || down > want+slack {
		t.Fatalf("local downloaded %d bytes, want %d (+%d slack)", down, want, slack)
	}
}

func TestPeerSetRespectsLimits(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxPeerSet = 5
	cfg.InitialLeechers = 20
	if got, want := cfg.minPeerSet(), 3; got != want {
		t.Fatalf("re-announce threshold %d at MaxPeerSet 5, want %d", got, want)
	}
	if got, want := cfg.maxInitiated(), 2; got != want {
		t.Fatalf("initiated cap %d at MaxPeerSet 5, want %d", got, want)
	}
	s := New(cfg)
	s.Run()
	for _, p := range s.peers {
		if len(p.connList) > cfg.MaxPeerSet {
			t.Fatalf("peer %d has %d connections, cap %d", p.id, len(p.connList), cfg.MaxPeerSet)
		}
		if p.initiated > cfg.maxInitiated() {
			t.Fatalf("peer %d initiated %d connections, cap %d", p.id, p.initiated, cfg.maxInitiated())
		}
	}
}

// TestDefaultPeerSetLimits: at mainline's peer set of 80 the derived
// limits are mainline's own, a re-announce below 20 peers and at most 40
// initiated connections.
func TestDefaultPeerSetLimits(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MaxPeerSet != 80 || cfg.minPeerSet() != 20 || cfg.maxInitiated() != 40 {
		t.Fatalf("MaxPeerSet %d derives re-announce threshold %d and initiated cap %d, want 80, 20, 40",
			cfg.MaxPeerSet, cfg.minPeerSet(), cfg.maxInitiated())
	}
}

func TestTransientStateHasRarePieces(t *testing.T) {
	// Single slow seed, content large relative to seed capacity: pieces
	// that exist only on the initial seed ("rare pieces") must persist for
	// a sustained prefix of the run — the paper's transient state.
	cfg := tinyConfig()
	cfg.NumPieces = 64
	cfg.PieceSize = 256 << 10
	cfg.InitialSeedUp = 16 << 10 // very slow seed: 16 MB needs ~1000 s for one copy
	cfg.InitialLeechers = 12
	cfg.Duration = 1200
	s := New(cfg)
	res := s.Run()
	rare := 0
	for _, sm := range res.Collector.Samples {
		if sm.GlobalRare > 0 {
			rare++
		}
	}
	if rare < len(res.Collector.Samples)/3 {
		t.Fatalf("transient torrent: rare pieces in only %d/%d samples",
			rare, len(res.Collector.Samples))
	}
}

func TestSteadyStateNoRarePieces(t *testing.T) {
	// Fast seed + small content: the torrent leaves transient state
	// quickly; late samples must show min copies >= 1 (Fig 4's signature).
	cfg := tinyConfig()
	cfg.InitialSeedUp = 512 << 10
	cfg.LocalJoinTime = 400
	cfg.Duration = 2000
	s := New(cfg)
	res := s.Run()
	samples := res.Collector.Samples
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	// After the initial seed has pushed one full copy, no rare piece may
	// ever reappear ("we never observed a steady state followed by a
	// transient state").
	okCount, considered := 0, 0
	seenSteady := false
	for _, sm := range samples {
		if sm.GlobalRare == 0 {
			seenSteady = true
		}
		if seenSteady {
			considered++
			if sm.GlobalRare == 0 {
				okCount++
			}
		}
	}
	if !seenSteady {
		t.Fatal("torrent never reached steady state")
	}
	if okCount != considered {
		t.Fatalf("steady state regressed to transient: %d/%d steady samples", okCount, considered)
	}
}

func TestFreeRidersArePenalizedButSurvive(t *testing.T) {
	cfg := tinyConfig()
	cfg.InitialLeechers = 14
	cfg.FreeRiderFraction = 0.3
	cfg.Duration = 8000
	s := New(cfg)
	res := s.Run()
	if res.FinishedFree == 0 {
		t.Skip("no free rider finished in the window; nothing to compare")
	}
	if res.MeanDownloadFree <= res.MeanDownloadContrib {
		t.Fatalf("free riders faster than contributors: %f <= %f",
			res.MeanDownloadFree, res.MeanDownloadContrib)
	}
}

func TestChurnWithDepartingSeeds(t *testing.T) {
	cfg := tinyConfig()
	cfg.SeedLingerMean = 120 // finished peers leave quickly
	cfg.ArrivalRate = 0.05
	cfg.AbortRate = 1.0 / 3000
	cfg.Duration = 3000
	s := New(cfg)
	res := s.Run()
	if res.Arrivals <= cfg.InitialLeechers {
		t.Fatalf("no churn arrivals: %d", res.Arrivals)
	}
	// The system must stay consistent (no panics) and the local peer must
	// have made progress.
	if s.local.downloaded == 0 {
		t.Fatal("local peer made no progress under churn")
	}
}

func TestGlobalAvailabilityConsistency(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 500
	s := New(cfg)
	s.Run()
	// Recompute global availability from live peers and compare.
	want := make([]int, cfg.NumPieces)
	for _, p := range s.peers {
		if p.departed {
			continue
		}
		p.have.Range(func(i int) bool { want[i]++; return true })
	}
	for i := 0; i < cfg.NumPieces; i++ {
		if got := s.globalAvail.Count(i); got != want[i] {
			t.Fatalf("global avail piece %d: %d, want %d", i, got, want[i])
		}
	}
}

func TestPerPeerAvailabilityConsistency(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 700
	s := New(cfg)
	s.Run()
	for _, p := range s.peers {
		if p.departed {
			continue
		}
		want := make([]int, cfg.NumPieces)
		for _, c := range p.connList {
			c.mirror.owner.have.Range(func(i int) bool { want[i]++; return true })
		}
		for i := 0; i < cfg.NumPieces; i++ {
			if got := p.avail.Count(i); got != want[i] {
				t.Fatalf("peer %d avail piece %d: %d, want %d", p.id, i, got, want[i])
			}
		}
	}
}

func TestInterestConsistency(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 600
	s := New(cfg)
	s.Run()
	for _, p := range s.peers {
		if p.departed {
			continue
		}
		for _, c := range p.connList {
			r := c.mirror.owner
			want := p.interestedIn(r)
			if c.amInterested != want {
				t.Fatalf("peer %d interest in %d = %v, want %v",
					p.id, r.id, c.amInterested, want)
			}
			// The remote's own conn back is the mirror.
			if r.connTo(p) != c.mirror {
				t.Fatalf("mirror inconsistent between %d and %d", p.id, r.id)
			}
		}
	}
}

func TestSeedsDisconnectFromSeeds(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 6000
	s := New(cfg)
	s.Run()
	for _, p := range s.peers {
		if p.departed || !p.seed {
			continue
		}
		for _, c := range p.connList {
			if c.mirror.owner.seed {
				t.Fatalf("seed %d still connected to seed %d", p.id, c.remoteID)
			}
		}
	}
}

func TestConfigValidatePanics(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumPieces = 0 },
		func(c *Config) { c.InitialSeeds = -1 },
		func(c *Config) { c.MaxPeerSet = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.ArrivalRate = -1 },
	}
	for i, mut := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			cfg := DefaultConfig()
			mut(&cfg)
			New(cfg)
		}()
	}
}

func TestSmartSeedServeNeverDuplicates(t *testing.T) {
	cfg := tinyConfig()
	cfg.SmartSeedServe = true
	cfg.InitialSeedUp = 32 << 10 // slow seed: contention for its service
	cfg.Duration = 3000
	s := New(cfg)
	res := s.Run()
	if res.SeedServes == 0 {
		t.Fatal("initial seed never served")
	}
	// With the idealized policy the seed may only serve a duplicate once
	// every piece has been served at least once.
	served := 0
	for _, c := range s.seedServeCount {
		if c > 0 {
			served++
		}
	}
	if res.DupSeedServes > 0 && served < cfg.NumPieces {
		t.Fatalf("smart seed served %d duplicates with only %d/%d pieces out",
			res.DupSeedServes, served, cfg.NumPieces)
	}
}

func TestRandomPickerSwarmStillCompletes(t *testing.T) {
	cfg := tinyConfig()
	cfg.Picker = PickRandom
	s := New(cfg)
	res := s.Run()
	if !res.LocalCompleted {
		t.Fatal("random-picker swarm: local did not complete")
	}
}

func TestInitialSeedDepartureKillsTransientTorrent(t *testing.T) {
	// Failure injection: the initial seed leaves mid-startup while rare
	// pieces are still out. The torrent dies — nobody can complete, and
	// some pieces have zero live copies.
	cfg := tinyConfig()
	cfg.NumPieces = 64
	cfg.PieceSize = 256 << 10
	cfg.InitialSeedUp = 16 << 10
	cfg.InitialLeechers = 10
	cfg.Duration = 1500
	cfg.InitialSeedLeaveAt = 300
	s := New(cfg)
	res := s.Run()
	if res.LocalCompleted {
		t.Fatal("local peer completed a dead torrent")
	}
	if res.FinishedContrib != 0 {
		t.Fatalf("%d leechers completed a dead torrent", res.FinishedContrib)
	}
	if s.GlobalMinCopies() != 0 {
		t.Fatalf("global min copies = %d after seed departure, want 0", s.GlobalMinCopies())
	}
}

func TestBoostNewcomersImprovesFirstBlock(t *testing.T) {
	// The §VI extension: with BoostNewcomers, the exploratory slots target
	// piece-less peers, so a freshly joined peer gets its first block at
	// least as fast on average. We compare the local peer's first-block
	// latency across a few seeds and require boost <= baseline overall.
	latency := func(boost bool) float64 {
		total := 0.0
		for seed := int64(1); seed <= 3; seed++ {
			cfg := tinyConfig()
			cfg.Seed = seed
			cfg.BoostNewcomers = boost
			cfg.InitialLeechers = 20
			cfg.Duration = 1200
			s := New(cfg)
			res := s.Run()
			bt := res.Collector.BlockTimes
			if len(bt) == 0 {
				t.Fatal("no blocks at all")
			}
			total += bt[0] - cfg.LocalJoinTime
		}
		return total
	}
	base := latency(false)
	boosted := latency(true)
	if boosted > base*1.5 {
		t.Fatalf("newcomer boost made first block much slower: %.1f vs %.1f", boosted, base)
	}
	t.Logf("first-block latency sum: baseline %.1fs, boosted %.1fs", base, boosted)
}
