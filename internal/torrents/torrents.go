// Package torrents is the catalog of the paper's Table I: the 26 torrents
// the authors monitored, with the seed/leecher populations, maximum peer
// set sizes and content sizes the paper reports, plus the scaling rules
// that map each entry onto a runnable swarm.Config.
//
// Absolute populations and content sizes are scaled down for simulation
// (see Scale); the seed:leecher ratio, the relation between peer-set size
// and population, and the relation between initial-seed capacity and
// content size — the quantities the paper's conclusions rest on — are
// preserved.
package torrents

import (
	"fmt"
	"math"

	"rarestfirst/internal/swarm"
)

// State is the torrent state the paper reports or implies for each entry.
type State int

// Torrent states.
const (
	// Steady: no rare piece; every piece has at least one copy beyond the
	// initial seed.
	Steady State = iota
	// Transient: the initial seed has not yet uploaded one full copy.
	Transient
	// NoSeed: torrent 1 had zero seeds at the start of the experiment.
	NoSeed
)

func (s State) String() string {
	switch s {
	case Steady:
		return "steady"
	case Transient:
		return "transient"
	default:
		return "no-seed"
	}
}

// Spec is one row of Table I.
type Spec struct {
	ID       int
	Seeds    int
	Leechers int
	MaxPS    int // maximum peer set size in leecher state
	SizeMB   int
	State    State
}

// Ratio returns the seeds/leechers ratio (column 4 of Table I).
func (s Spec) Ratio() float64 {
	if s.Leechers == 0 {
		return math.Inf(1)
	}
	return float64(s.Seeds) / float64(s.Leechers)
}

func (s Spec) String() string {
	return fmt.Sprintf("torrent %d: %d seeds, %d leechers, maxPS %d, %d MB (%s)",
		s.ID, s.Seeds, s.Leechers, s.MaxPS, s.SizeMB, s.State)
}

// TableI is the paper's Table I. States follow §IV-A: torrents 2, 4, 5, 6,
// 8 and 9 are in transient state (startup phase), torrent 1 has no seed,
// and the rest are steady (torrent 7 is the paper's steady-state case
// study, torrent 10 its interarrival case study).
var TableI = []Spec{
	{ID: 1, Seeds: 0, Leechers: 66, MaxPS: 60, SizeMB: 700, State: NoSeed},
	{ID: 2, Seeds: 1, Leechers: 2, MaxPS: 3, SizeMB: 580, State: Transient},
	{ID: 3, Seeds: 1, Leechers: 29, MaxPS: 34, SizeMB: 350, State: Steady},
	{ID: 4, Seeds: 1, Leechers: 40, MaxPS: 75, SizeMB: 800, State: Transient},
	{ID: 5, Seeds: 1, Leechers: 50, MaxPS: 60, SizeMB: 1419, State: Transient},
	{ID: 6, Seeds: 1, Leechers: 130, MaxPS: 80, SizeMB: 820, State: Transient},
	{ID: 7, Seeds: 1, Leechers: 713, MaxPS: 80, SizeMB: 700, State: Steady},
	{ID: 8, Seeds: 1, Leechers: 861, MaxPS: 80, SizeMB: 3000, State: Transient},
	{ID: 9, Seeds: 1, Leechers: 1055, MaxPS: 80, SizeMB: 2000, State: Transient},
	{ID: 10, Seeds: 1, Leechers: 1207, MaxPS: 80, SizeMB: 348, State: Steady},
	{ID: 11, Seeds: 1, Leechers: 1411, MaxPS: 80, SizeMB: 710, State: Steady},
	{ID: 12, Seeds: 3, Leechers: 612, MaxPS: 80, SizeMB: 1413, State: Steady},
	{ID: 13, Seeds: 9, Leechers: 30, MaxPS: 35, SizeMB: 350, State: Steady},
	{ID: 14, Seeds: 20, Leechers: 126, MaxPS: 80, SizeMB: 184, State: Steady},
	{ID: 15, Seeds: 30, Leechers: 230, MaxPS: 80, SizeMB: 820, State: Steady},
	{ID: 16, Seeds: 50, Leechers: 18, MaxPS: 40, SizeMB: 600, State: Steady},
	{ID: 17, Seeds: 102, Leechers: 342, MaxPS: 80, SizeMB: 200, State: Steady},
	{ID: 18, Seeds: 115, Leechers: 19, MaxPS: 55, SizeMB: 430, State: Steady},
	{ID: 19, Seeds: 160, Leechers: 5, MaxPS: 17, SizeMB: 6, State: Steady},
	{ID: 20, Seeds: 177, Leechers: 4657, MaxPS: 80, SizeMB: 2000, State: Steady},
	{ID: 21, Seeds: 462, Leechers: 180, MaxPS: 80, SizeMB: 2600, State: Steady},
	{ID: 22, Seeds: 514, Leechers: 1703, MaxPS: 80, SizeMB: 349, State: Steady},
	{ID: 23, Seeds: 1197, Leechers: 4151, MaxPS: 80, SizeMB: 349, State: Steady},
	{ID: 24, Seeds: 3697, Leechers: 7341, MaxPS: 80, SizeMB: 349, State: Steady},
	{ID: 25, Seeds: 11641, Leechers: 5418, MaxPS: 80, SizeMB: 350, State: Steady},
	{ID: 26, Seeds: 12612, Leechers: 7052, MaxPS: 80, SizeMB: 140, State: Steady},
}

// ByID returns the Table I spec with the given ID (1-based).
func ByID(id int) (Spec, bool) {
	for _, s := range TableI {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// Scale controls how a Table I entry is shrunk to simulation size.
type Scale struct {
	// MaxPeers caps seeds+leechers; populations above it are scaled down
	// preserving the seed:leecher ratio.
	MaxPeers int
	// MaxContentMB caps the content size.
	MaxContentMB int
	// MaxPieces caps the piece count (piece size grows to compensate).
	MaxPieces int
	// Duration is the local peer's observation window in seconds (the
	// paper observed for 8 hours).
	Duration float64
	// Warmup is the pre-join simulation time in seconds.
	Warmup float64
	// Seed seeds the RNG; runs are reproducible bit-for-bit.
	Seed int64
}

// DefaultScale is the scale used by cmd/experiments: it keeps every
// experiment within tens of seconds of wall-clock simulation.
func DefaultScale() Scale {
	return Scale{
		MaxPeers:     240,
		MaxContentMB: 48,
		MaxPieces:    256,
		Duration:     5400,
		Warmup:       1500,
		Seed:         42,
	}
}

// BenchScale is the much smaller scale used by the benchmark harness.
func BenchScale() Scale {
	return Scale{
		MaxPeers:     60,
		MaxContentMB: 16,
		MaxPieces:    64,
		Duration:     1800,
		Warmup:       400,
		Seed:         42,
	}
}

// meanUploadBps returns the population-weighted mean upload capacity of
// the default capacity mix.
func meanUploadBps() float64 {
	var sum, w float64
	for _, c := range swarm.DefaultCapacityMix() {
		sum += float64(c.Fraction * c.UpBps) // float64: no fused multiply-add
		w += c.Fraction
	}
	return sum / w
}

// Config maps a Table I spec onto a runnable swarm configuration at the
// given scale.
//
// Churn is derived from the spec with Little's law: a swarm holds L
// leechers when they arrive at rate L/T, where T is the estimated download
// time (content size over ~75% of the mean peer upload capacity — swarms
// without network bottlenecks are upload-constrained). Finished leechers
// leave after a short linger, so the seed population stays close to the
// catalog's initial seeds, keeping the seed:leecher ratio of Table I.
func (s Spec) Config(sc Scale) swarm.Config {
	cfg := swarm.DefaultConfig()
	cfg.Seed = sc.Seed + int64(s.ID)*1000

	// Population scaling preserving the seed:leecher ratio. The paper
	// notes 710 seeds per million peers suffice for torrent 11's ratio —
	// the ratio, not the absolute count, is what stresses the algorithms.
	seeds, leech := s.Seeds, s.Leechers
	if total := seeds + leech; total > sc.MaxPeers {
		f := float64(sc.MaxPeers) / float64(total)
		seeds = int(math.Round(float64(seeds) * f))
		leech = int(math.Round(float64(leech) * f))
		if s.Seeds > 0 && seeds == 0 {
			seeds = 1
		}
		if s.Leechers > 0 && leech < 2 {
			leech = 2
		}
	}
	cfg.InitialSeeds = seeds
	cfg.InitialLeechers = leech

	// Content scaling: cap megabytes, then cap pieces by growing the
	// piece size (in 16 kB steps so blocks stay uniform).
	sizeMB := s.SizeMB
	if sizeMB > sc.MaxContentMB {
		sizeMB = sc.MaxContentMB
	}
	if sizeMB < 1 {
		sizeMB = 1
	}
	bytes := int64(sizeMB) << 20
	pieceSize := 256 << 10
	for int(bytes/int64(pieceSize)) > sc.MaxPieces {
		pieceSize += 16 << 10
	}
	cfg.PieceSize = pieceSize
	cfg.NumPieces = int(bytes / int64(pieceSize))
	if cfg.NumPieces < 8 {
		cfg.NumPieces = 8
	}

	cfg.MaxPeerSet = s.MaxPS
	if cfg.MaxPeerSet > 4*(seeds+leech) {
		// Keep the paper's "peer set smaller than torrent" property at
		// reduced populations.
		cfg.MaxPeerSet = max(4, (seeds+leech)/2)
	}

	// Estimated download time of one leecher in an upload-constrained
	// swarm; drives both churn and warmup.
	tEst := float64(bytes) / (0.75 * meanUploadBps())
	warmup := sc.Warmup

	// Initial seed capacity sets the torrent state. For transient torrents
	// the seed must not finish one copy within warmup+duration (the paper
	// measured ~36 kB/s of rare-piece service on torrent 8); for steady
	// single-seed torrents the seed must finish one copy within warmup.
	switch s.State {
	case Transient:
		cfg.InitialSeedUp = float64(bytes) / (1.5 * (warmup + sc.Duration))
		if cfg.InitialSeedUp > 36<<10 {
			cfg.InitialSeedUp = 36 << 10
		}
	case NoSeed:
		cfg.InitialSeedUp = 0
		// Torrent 1: no seed; 90% of the pieces circulate among the
		// initial leechers, the remainder is gone for good.
		cfg.AvailableFrac = 0.9
		cfg.LeecherBootstrapMax = 0.85
	default:
		// Steady state requires the full first copy out before the local
		// peer joins: let the swarm run for at least two download
		// generations, and give the seed the capacity to finish one copy
		// comfortably inside that window.
		if warmup < 2.2*tEst {
			warmup = 2.2 * tEst
		}
		need := float64(bytes) / (0.7 * warmup)
		cfg.InitialSeedUp = math.Max(128<<10, need)
	}

	switch s.State {
	case Transient, NoSeed:
		// Nobody can finish while pieces are missing, so the leecher
		// population self-sustains; arrivals only grow it modestly.
		cfg.ArrivalRate = float64(leech) / (2 * (warmup + sc.Duration))
		cfg.SeedLingerMean = 60
	default:
		cfg.ArrivalRate = float64(leech) / tEst
		// Linger sized so lingering finishers contribute about the
		// catalog's seed count on top of the persistent initial seeds:
		// steady extra seeds = arrivalRate * linger.
		linger := float64(seeds) / cfg.ArrivalRate
		cfg.SeedLingerMean = math.Min(120, math.Max(10, linger))
	}
	cfg.AbortRate = 1.0 / (8 * tEst)
	cfg.KeepInitialSeed = s.State != NoSeed

	cfg.LocalJoinTime = warmup
	cfg.Duration = sc.Duration
	return cfg
}
