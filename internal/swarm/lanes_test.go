package swarm

import (
	"math"
	"testing"

	"rarestfirst/internal/core"
)

// laneConfig is tinyConfig with churn plus lane rounds: arrivals and
// departures exercise lane re-arming, departures mid-grid, and batches
// whose width changes over time.
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
	laneBatches, laneEvents          uint64
	peakWidth                        int
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
		laneBatches:    res.Events.LaneBatches,
		laneEvents:     res.Events.LaneEvents,
		peakWidth:      res.Events.PeakLaneWidth,
	}
	for _, p := range res.Collector.Samples {
		s.samples++
		s.sampleSum += p.Mean + float64(p.Min+p.Max+p.RarestSize+p.PeerSet)
	}
	s.interest = res.Collector.MsgCounts["interested_received"]
	s.unchokes = res.Collector.MsgCounts["unchoke_sent"]
	s.haveReceived = res.Collector.MsgCounts["have_received"]
	return s
}

// TestChokeLanesDeterministicAcrossWorkers runs the same lane-mode swarm
// twice, and once more with the invariant checker on, and requires every
// observable output — download outcomes, float means, sample series
// digests, message counts and the lane stats themselves — to match
// exactly. The checker is a pure read, so it must not move a thing.
func TestChokeLanesDeterministicAcrossWorkers(t *testing.T) {
	serial := summarize(t, New(laneConfig()).Run())
	if again := summarize(t, New(laneConfig()).Run()); again != serial {
		t.Fatalf("lane rounds are not reproducible:\n first  %+v\n second %+v", serial, again)
	}
	checked := laneConfig()
	checked.Invariants = true
	if got := summarize(t, New(checked).Run()); got != serial {
		t.Fatalf("lane rounds diverge with invariants on:\n plain   %+v\n checked %+v", serial, got)
	}
	if serial.laneBatches == 0 || serial.laneEvents == 0 {
		t.Fatalf("no lane batches executed: %+v", serial)
	}
	// With 21+ peers on a shared grid, instants must batch more than one
	// round.
	if serial.peakWidth < 10 {
		t.Fatalf("peak lane width = %d, want >= 10 (rounds are not batching)", serial.peakWidth)
	}
}

// TestChokeLanesRoundsOnGrid checks the alignment invariant the batching
// relies on: every lane choke round fires on an exact multiple of
// core.ChokeInterval.
func TestChokeLanesRoundsOnGrid(t *testing.T) {
	if got := nextChokeInstant(0); got != core.ChokeInterval {
		t.Fatalf("nextChokeInstant(0) = %v", got)
	}
	if got := nextChokeInstant(core.ChokeInterval); got != 2*core.ChokeInterval {
		t.Fatalf("nextChokeInstant(%v) = %v", core.ChokeInterval, got)
	}
	at := 0.0
	for i := 0; i < 100000; i++ {
		at = nextChokeInstant(at)
	}
	if want := 100000 * core.ChokeInterval; at != want {
		t.Fatalf("grid drifted after 100k re-arms: %v != %v", at, want)
	}
	if got := nextChokeInstant(37.2); got != 40 {
		t.Fatalf("nextChokeInstant(37.2) = %v", got)
	}
}

// TestChokeLanesCompletes is the end-to-end smoke: a lane-mode closed
// swarm still drains to completion, and disabling lanes on the same
// config still works (the two modes are different schedules, so outcomes
// may differ — both just have to finish).
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
	if res.Events.PeakLaneWidth < 2 {
		t.Fatalf("peak lane width = %d", res.Events.PeakLaneWidth)
	}
}

// TestLaneChokeComputeZeroAllocWhenWarm pins the single snapshot buffer
// and the shared choke scratch: every lane choke compute refills the
// swarm's one chokeSnaps, with a row per interested conn, and once it has
// grown a compute allocates nothing. The computing peers are seeds, so
// every leecher is interested in them and each round has rows to rank.
func TestLaneChokeComputeZeroAllocWhenWarm(t *testing.T) {
	s := newTestSwarm(t, func(cfg *Config) {
		cfg.ChokeLanes = true
	})
	seed := s.addPeer(true, false, false, 1e5, 0)
	other := s.addPeer(true, false, false, 1e5, 0)
	for i := 0; i < 4; i++ {
		s.addPeer(false, false, false, 1e5, 0)
	}
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
	// Both peers' computes refill the same buffer.
	compute := func() {
		if seed.chokeLaneCompute() == nil || other.chokeLaneCompute() == nil {
			t.Fatal("a live peer's compute returned no apply half")
		}
	}
	compute()
	buf := &s.chokeSnaps[0]
	if n := testing.AllocsPerRun(100, compute); n != 0 {
		t.Fatalf("warm lane choke computes allocate %v objects, want 0", n)
	}
	if len(s.chokeSnaps) != interested(other) || &s.chokeSnaps[0] != buf {
		t.Fatalf("snapshot holds %d peers in a new buffer, want %d in the warm one", len(s.chokeSnaps), interested(other))
	}
	if len(seed.laneUnchoke) == 0 || len(other.laneUnchoke) == 0 {
		t.Fatal("a seed with interested peers parked no unchoke")
	}
}
