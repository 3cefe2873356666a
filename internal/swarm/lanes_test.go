package swarm

import (
	"math"
	"runtime"
	"testing"

	"rarestfirst/internal/core"
)

// laneConfig is tinyConfig with churn plus grid-aligned rounds: arrivals
// and departures exercise re-arming on the grid and departures mid-grid.
func laneConfig() Config {
	cfg := tinyConfig()
	cfg.InitialLeechers = 20
	cfg.ArrivalRate = 0.01
	cfg.SeedLingerMean = 600
	cfg.Duration = 2500
	cfg.ChokeLanes = true
	return cfg
}

// laneSummary flattens a Result's deterministic outputs for comparison.
type laneSummary struct {
	localCompleted                   bool
	localTime                        float64
	arrivals, finC, finF             int
	meanC, meanF                     float64
	seedServes, dupServes            int
	samples                          int
	sampleSum                        float64
	interest, unchokes, haveReceived int
}

func summarize(t *testing.T, res *Result) laneSummary {
	t.Helper()
	s := laneSummary{
		localCompleted: res.LocalCompleted,
		localTime:      res.LocalDownloadTime,
		arrivals:       res.Arrivals,
		finC:           res.FinishedContrib,
		finF:           res.FinishedFree,
		meanC:          res.MeanDownloadContrib,
		meanF:          res.MeanDownloadFree,
		seedServes:     res.SeedServes,
		dupServes:      res.DupSeedServes,
	}
	for _, p := range res.Collector.Samples {
		s.samples++
		s.sampleSum += p.Mean + float64(p.Min+p.Max+p.RarestSize+p.PeerSet)
	}
	s.interest = res.Collector.MsgCounts["remote_interested"]
	s.unchokes = res.Collector.MsgCounts["unchoke"]
	s.haveReceived = res.Collector.MsgCounts["have_received"]
	return s
}

// TestChokeLanesDeterministicAcrossWorkers runs the same grid-aligned
// swarm twice, and once more with the invariant checker on, and requires
// every observable output — download outcomes, float means, sample series
// digests and message counts — to match exactly. The checker is a pure
// read, so it must not move a thing.
func TestChokeLanesDeterministicAcrossWorkers(t *testing.T) {
	serial := summarize(t, New(laneConfig()).Run())
	if again := summarize(t, New(laneConfig()).Run()); again != serial {
		t.Fatalf("grid-aligned rounds are not reproducible:\n first  %+v\n second %+v", serial, again)
	}
	checked := laneConfig()
	checked.Invariants = true
	if got := summarize(t, New(checked).Run()); got != serial {
		t.Fatalf("grid-aligned rounds diverge with invariants on:\n plain   %+v\n checked %+v", serial, got)
	}
	if serial.interest == 0 || serial.unchokes == 0 || serial.haveReceived == 0 || serial.samples == 0 {
		t.Fatalf("a message count or the sample series is empty: %+v", serial)
	}
}

// TestChokeLanesRoundsOnGrid checks the alignment invariant: every choke
// round of a ChokeLanes peer fires on an exact multiple of
// core.ChokeInterval, whenever the peer joined, and re-arming never
// drifts off the grid.
func TestChokeLanesRoundsOnGrid(t *testing.T) {
	if got := nextChokeInstant(0); got != core.ChokeInterval {
		t.Fatalf("nextChokeInstant(0) = %v", got)
	}
	if got := nextChokeInstant(core.ChokeInterval); got != 2*core.ChokeInterval {
		t.Fatalf("nextChokeInstant(%v) = %v", core.ChokeInterval, got)
	}
	at := 0.0
	for i := 0; i < 100000; i++ {
		at += core.ChokeInterval
	}
	if want := nextChokeInstant(100000*core.ChokeInterval - 1); at != want {
		t.Fatalf("grid drifted after 100k re-arms: %v != %v", at, want)
	}
	if got := nextChokeInstant(37.2); got != 40 {
		t.Fatalf("nextChokeInstant(37.2) = %v", got)
	}

	s := newTestSwarm(t, func(cfg *Config) { cfg.ChokeLanes = true })
	var rounds []float64
	join := func(seed bool) {
		p := s.addPeer(seed, false, false, 1e5, 0)
		// Re-arm the first round through a recording wrapper; chokeRound
		// re-arms with chokeFn, so every later round is recorded too.
		p.chokeTimer.Cancel()
		p.chokeFn = func() {
			rounds = append(rounds, s.eng.Now())
			p.chokeRound()
		}
		p.armFirstChokeRound()
	}
	join(true)
	for i := 0; i < 12; i++ {
		s.eng.At(0.37+7.3*float64(i), func() { join(false) })
	}
	s.eng.Run(300)
	if len(rounds) < 100 {
		t.Fatalf("%d choke rounds in 300 s, want one per peer per interval", len(rounds))
	}
	for _, at := range rounds {
		if at/core.ChokeInterval != math.Trunc(at/core.ChokeInterval) {
			t.Fatalf("a choke round fired at %v, off the %v s grid", at, core.ChokeInterval)
		}
	}
}

// TestChokeLanesCompletes is the end-to-end smoke: a closed swarm with
// grid-aligned rounds still drains to completion.
func TestChokeLanesCompletes(t *testing.T) {
	cfg := tinyConfig()
	cfg.ChokeLanes = true
	res := New(cfg).Run()
	if !res.LocalCompleted {
		t.Fatal("lane-mode local peer did not complete")
	}
	if res.FinishedContrib != cfg.InitialLeechers {
		t.Fatalf("lane mode finished %d of %d leechers", res.FinishedContrib, cfg.InitialLeechers)
	}
	if math.IsNaN(res.MeanDownloadContrib) || res.MeanDownloadContrib <= 0 {
		t.Fatalf("bad mean download time %v", res.MeanDownloadContrib)
	}
}

// TestLaneChokeComputeZeroAllocWhenWarm pins grid-aligned rounds at zero
// allocations once warm: after a minute of simulated grid rounds, two
// seeds' next rounds (every leecher is interested in them, so each round
// has rows to rank) refill the swarm's one snapshot buffer and allocate
// nothing.
func TestLaneChokeComputeZeroAllocWhenWarm(t *testing.T) {
	s := newTestSwarm(t, func(cfg *Config) {
		cfg.ChokeLanes = true
		cfg.NumPieces = 256
	})
	seed := s.addPeer(true, false, false, 1e5, 0)
	other := s.addPeer(true, false, false, 1e5, 0)
	for i := 0; i < 4; i++ {
		s.addPeer(false, false, false, 1e5, 0)
	}
	s.eng.Run(60)
	interested := func(p *Peer) int {
		n := 0
		for _, c := range p.connList {
			if c.peerInterested {
				n++
			}
		}
		return n
	}
	if interested(seed) < 2 || interested(other) < 2 {
		t.Fatalf("the seeds have %d and %d interested conns, want several each", interested(seed), interested(other))
	}
	if at := seed.chokeTimer.At(); at != 70 {
		t.Fatalf("the seed's next round is at %v, want the grid point 70", at)
	}
	buf := &s.chokeSnaps[0]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		seed.runChokeRound()
		other.runChokeRound()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("warm grid-aligned choke rounds allocate %d objects, want 0", n)
	}
	if len(s.chokeSnaps) != interested(other) || &s.chokeSnaps[0] != buf {
		t.Fatalf("snapshot holds %d peers in a new buffer, want %d in the warm one", len(s.chokeSnaps), interested(other))
	}
	for _, p := range []*Peer{seed, other} {
		unchoked := 0
		for _, c := range p.connList {
			if c.amUnchoking {
				unchoked++
			}
		}
		if unchoked == 0 {
			t.Fatal("a seed with interested peers unchoked nobody")
		}
	}
}
