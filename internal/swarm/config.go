// Package swarm is the discrete-event BitTorrent swarm simulator: peers
// composed from the internal/core algorithms, an in-simulation tracker with
// the mainline peer-set management rules, churn, and the instrumented local
// peer whose traces feed every figure of the paper.
//
// Two simplifications relative to a live Internet swarm are safe in the
// paper's stated context ("peers well connected without severe network
// bottlenecks"): control messages are instantaneous (only data transfers
// consume bandwidth), and remote<->remote transfers run at piece
// granularity while every transfer touching the instrumented local peer
// runs at true block (16 kB) granularity.
package swarm

import (
	"math"
	"math/rand"

	"rarestfirst/internal/metainfo"
)

// PickerKind selects the swarm-wide piece selection strategy.
type PickerKind int

// Piece selection strategies.
const (
	PickRarestFirst PickerKind = iota
	PickRandom
	PickSequential
	PickGlobalRarest
)

// SeedChokerKind selects the algorithm peers use in seed state.
type SeedChokerKind int

// Seed-state choke algorithms.
const (
	SeedChokeNew SeedChokerKind = iota // mainline >= 4.0.0 (the paper's subject)
	SeedChokeOld                       // upload-rate ordered (pre-4.0.0 baseline)
)

// LeecherChokerKind selects the algorithm peers use in leecher state.
type LeecherChokerKind int

// Leecher-state choke algorithms.
const (
	LeecherChokeStandard  LeecherChokerKind = iota
	LeecherChokeTitForTat                   // bit-level tit-for-tat baseline
)

// CapacityClass is one rung of the remote-peer access-capacity mix.
type CapacityClass struct {
	Name     string
	UpBps    float64 // upload capacity, bytes/second
	DownBps  float64 // download capacity, bytes/second (0 = uncapped)
	Fraction float64 // share of the population
}

// DefaultCapacityMix approximates the 2005-era host population the paper's
// torrents drew from (dial-up/DSL/cable/university): most peers upload far
// slower than they download, and a small fast tail exists — the paper
// observed local download speeds from 20 kB/s up to 1500 kB/s. Mean upload
// is ~35 kB/s; the paper's 20 kB/s local peer is competitive with the DSL
// class, so it can hold regular-unchoke slots through reciprocation rather
// than depending purely on optimistic unchokes — the equilibrium behind
// Fig 9's concentration.
func DefaultCapacityMix() []CapacityClass {
	return []CapacityClass{
		{Name: "slow", UpBps: 8 << 10, DownBps: 96 << 10, Fraction: 0.35},
		{Name: "dsl", UpBps: 24 << 10, DownBps: 384 << 10, Fraction: 0.40},
		{Name: "cable", UpBps: 48 << 10, DownBps: 768 << 10, Fraction: 0.18},
		{Name: "fast", UpBps: 192 << 10, DownBps: 1536 << 10, Fraction: 0.07},
	}
}

// capacityMix is the mix every remote peer draws its capacities from.
var capacityMix = DefaultCapacityMix()

// sampleCapacity draws a class according to the mix fractions.
func sampleCapacity(rng *rand.Rand) CapacityClass {
	total := 0.0
	for _, c := range capacityMix {
		total += c.Fraction
	}
	x := rng.Float64() * total
	for _, c := range capacityMix {
		if x < c.Fraction {
			return c
		}
		x -= c.Fraction
	}
	return capacityMix[len(capacityMix)-1]
}

// The mainline and measurement constants of the paper's experiments,
// which no run varies.
const (
	// trackerResponse is how many random peers an announce returns.
	trackerResponse = 50
	// localUpBps is the instrumented peer's upload cap (the paper's
	// 20 kB/s); its download is uncapped (localDownBps, no limit).
	localUpBps   = 20 << 10
	localDownBps = 0
	// sampleEvery is the cadence, in simulated seconds, of the local
	// peer's availability samples behind Figs 2–6.
	sampleEvery = 10.0
)

// Config fully describes one experiment. The zero value is not runnable;
// start from DefaultConfig.
type Config struct {
	Seed int64 // RNG seed; runs are bit-reproducible given the seed

	// Content geometry.
	NumPieces int
	PieceSize int // bytes

	// Population at experiment start.
	InitialSeeds    int
	InitialLeechers int

	// Peer set management (mainline defaults from §II-B / §III-C). A peer
	// re-announces below min(20, MaxPeerSet/2+1) peers and initiates at
	// most max(2, MaxPeerSet/2) connections, 20 and 40 at mainline's 80;
	// an announce returns 50 random peers.
	MaxPeerSet int // 80, or the per-torrent "Max PS" of Table I

	// Strategy selection (swarm-wide; ablation knobs). Every choker runs
	// core.DefaultUploadSlots upload slots (3 regular + 1 optimistic).
	Picker        PickerKind
	SeedChoker    SeedChokerKind
	LeecherChoker LeecherChokerKind
	// TFTDeficitLimit is the tit-for-tat deficit threshold in bytes.
	TFTDeficitLimit int64
	// DisableRandomFirst turns off the random-first policy everywhere.
	DisableRandomFirst bool
	// BoostNewcomers enables the §VI extension: exploratory unchoke slots
	// (OU and SRU) prefer peers that have no pieces yet.
	BoostNewcomers bool

	// Capacities. Remote peers draw theirs from DefaultCapacityMix; the
	// instrumented peer uploads at the paper's 20 kB/s and downloads
	// uncapped.
	InitialSeedUp float64 // initial seed upload capacity

	// Churn.
	ArrivalRate     float64 // new leechers per second (Poisson); 0 = closed system
	SeedLingerMean  float64 // mean seconds a finished leecher keeps seeding
	AbortRate       float64 // per-leecher departure hazard before completion (1/s)
	KeepInitialSeed bool    // initial seed never departs

	// Smart seed-serve policy (idealized network coding / super seeding,
	// the A4 ablation): the initial seed substitutes the least-served piece
	// for whatever the downloader picked.
	SmartSeedServe bool

	// InitialSeedLeaveAt, when positive, makes the initial seed depart at
	// that simulated time regardless of KeepInitialSeed — the failure
	// injection behind "a torrent is alive as long as there is at least
	// one copy of each piece" (§II-B).
	InitialSeedLeaveAt float64

	// FreeRiderFraction of arriving/initial leechers never upload.
	FreeRiderFraction float64

	// AvailableFrac is the fraction of pieces present in the torrent at
	// start (the rest are held by nobody — torrent 1's dead-torrent
	// scenario). 0 means 1.0 (all pieces available).
	AvailableFrac float64
	// LeecherBootstrapMax, when positive, gives each INITIAL leecher a
	// uniform random fraction in [0, LeecherBootstrapMax] of the available
	// pieces, modelling a join into a long-running torrent. Later arrivals
	// always start empty, as does the instrumented local peer.
	LeecherBootstrapMax float64

	// Local (instrumented) peer.
	LocalJoinTime  float64 // warm-up before the local peer joins
	LocalFreeRider bool    // make the instrumented peer a free rider (A5 probe)

	// Duration is how long the experiment runs after the local peer joins;
	// the paper ran 8 h. Figs 2–6 sample it every 10 simulated seconds.
	Duration float64

	// ChokeLanes puts every peer's first choke round on the global
	// ChokeInterval grid (the next multiple of core.ChokeInterval after it
	// joins) instead of a random point of its first interval; every later
	// round follows ChokeInterval after the last, so it stays on the grid.
	// Each round is the ordinary serial one. The trajectories differ from
	// the default staggered rounds; the lanes-t7 golden pins them, and the
	// huge-swarm and flash-crowd-20k suites turn them on.
	ChokeLanes bool

	// Chaos, when non-nil, enables fault injection: failed and delayed
	// connection establishment, scheduled connection resets, and a tracker
	// blackout window during which announces fail and peers retry with a
	// fixed backoff. All draws come from the engine RNG, so a chaos run is
	// as bit-reproducible as a clean one; nil (the default, and every
	// golden scenario) adds no draws and no behavior change. These are the
	// sim twins of the live lab's netem fault plans.
	Chaos *Chaos

	// Crashes, when non-nil, enables process-failure injection: a
	// fraction of leechers is killed mid-transfer (availability counts
	// decremented, connections torn down, the tracker entry dropped) and
	// rejoins after an exponential downtime retaining a configurable
	// fraction of its verified pieces — the sim twin of the live lab's
	// kill/restart crash schedules. All draws come from the engine RNG,
	// so a crash run is as bit-reproducible as a clean one; nil (the
	// default, and every golden scenario) adds no draws and no behavior
	// change.
	Crashes *Crashes

	// Adversary, when non-nil, mixes Byzantine peers into the arriving
	// leecher population: piece poisoners (delivered pieces fail
	// verification with PoisonRate, wasting the bandwidth and forcing a
	// re-download), bitfield liars (advertise every piece, baiting
	// requests that stall for 20 s), and announce flooders.
	// Honest peers defend with provenance-based strikes and bans unless
	// NoBan is set. Like Chaos, every draw comes from the engine RNG, so
	// adversarial runs stay bit-reproducible; nil (the default and every
	// golden scenario) adds no draws and no behavior change.
	Adversary *Adversary

	// Invariants enables the swarm invariant checker: at every sample
	// tick and at run end, availability counts are cross-checked against
	// advertised bitfields, ban lists against unchoke slots, and the
	// local requester's redundant bookkeeping against itself, panicking
	// on the first violation. Pure reads — a run's trajectory and digest
	// are identical with the checker on or off.
	Invariants bool
}

// Chaos is the simulator's fault-injection plan — the twin of the live
// lab's netem knobs, in simulated seconds and probabilities.
type Chaos struct {
	// ConnSetupDelay defers each connection establishment by this many
	// simulated seconds (the sim twin of WAN propagation delay, which
	// only matters at setup since control traffic is instantaneous).
	ConnSetupDelay float64
	// DialFailRate is the probability a connection attempt fails outright
	// (the pair stays disconnected until some later trigger retries).
	DialFailRate float64
	// ConnResetRate is the probability an established connection gets a
	// scheduled reset, after an Exp(ConnResetMeanDelay) delay.
	ConnResetRate float64
	// ConnResetMeanDelay is that delay's mean in seconds. Fault plans set
	// it to netem.Plan.FaultDelay of the run window, the same default the
	// live injector uses.
	ConnResetMeanDelay float64
	// Tracker blackout window in simulated time: announces inside
	// [TrackerBlackoutStart, TrackerBlackoutEnd) fail, and the peer
	// retries AnnounceRetry seconds later.
	TrackerBlackoutStart float64
	TrackerBlackoutEnd   float64
}

// AnnounceRetry is the fixed backoff, in simulated seconds, after an
// announce fails inside a Chaos tracker blackout.
const AnnounceRetry = 30.0

// Crashes is the simulator's crash-and-rejoin plan — the sim twin of the
// live lab's process kill/restart schedules (scenario.CrashPlan), in
// simulated seconds and probabilities.
type Crashes struct {
	// Frac is the probability each arriving/initial leecher (never a
	// seed or the instrumented local peer) crashes once during the run.
	Frac float64
	// WindowStart / WindowEnd bound the crash window in simulated time;
	// each victim's kill instant is uniform inside the window.
	WindowStart float64
	WindowEnd   float64
	// MeanDowntime is the mean of the exponential downtime between
	// crash and rejoin (0 = 30 simulated seconds).
	MeanDowntime float64
	// RetainFrac is the per-piece probability a verified piece survives
	// the crash (0 = 1.0: a clean resume file keeps everything; lower
	// values model partial loss).
	RetainFrac float64
	// DropAllFirst makes the first crashing peer lose its entire resume
	// state regardless of RetainFrac — the sim twin of the live plan's
	// corrupted-resume-file victim, with the dropped pieces counted as
	// resume hash failures.
	DropAllFirst bool
}

// Defaulting helpers.
func (cr *Crashes) meanDowntime() float64 {
	if cr.MeanDowntime > 0 {
		return cr.MeanDowntime
	}
	return 30
}

func (cr *Crashes) retainFrac() float64 {
	if cr.RetainFrac > 0 {
		return cr.RetainFrac
	}
	return 1.0
}

// Adversary is the simulator's Byzantine peer plan — the sim twin of
// internal/adversary models, in simulated seconds and probabilities.
type Adversary struct {
	// Fraction of arriving/initial leechers (never the initial seeds or
	// the instrumented local peer) that are adversarial.
	Fraction float64
	// PoisonRate makes adversarial peers poisoners: each piece they
	// deliver is corrupt with this probability. The victim detects it at
	// completion, counts the wasted bytes, re-downloads, and (unless
	// NoBan) strikes or bans the supplier.
	PoisonRate float64
	// FakeHaves makes adversarial peers bitfield liars: they advertise a
	// full bitfield while holding nothing and never download, so victims
	// pick pieces the liar cannot serve and stall for fakeHaveTimeout
	// (20 s) before striking it.
	FakeHaves bool
	// Flood makes adversarial peers announce flooders: they hit the
	// tracker every floodAnnounceEvery (5 s) and never upload.
	Flood bool
	// NoBan disables the ban response (measurement mode): faults are
	// still counted, adversaries stay in peer sets. Otherwise honest
	// victims ban a peer at core.PoisonStrikes strikes, and a sole
	// supplier of a corrupt piece on first detection.
	NoBan bool
}

// The adversary plan's timings, in simulated seconds.
const (
	// floodAnnounceEvery is the flooders' re-announce period.
	floodAnnounceEvery = 5.0
	// fakeHaveTimeout is how long a victim waits on a baited request
	// before giving up and striking the liar.
	fakeHaveTimeout = 20.0
)

// blackedOut reports whether the tracker is inside its blackout window.
func (ch *Chaos) blackedOut(now float64) bool {
	return now >= ch.TrackerBlackoutStart && now < ch.TrackerBlackoutEnd
}

// DefaultConfig returns mainline defaults on a small steady torrent.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		NumPieces:       400,
		PieceSize:       metainfo.DefaultPieceSize,
		InitialSeeds:    1,
		InitialLeechers: 40,
		MaxPeerSet:      80,
		Picker:          PickRarestFirst,
		SeedChoker:      SeedChokeNew,
		LeecherChoker:   LeecherChokeStandard,
		InitialSeedUp:   128 << 10,
		ArrivalRate:     0.02,
		SeedLingerMean:  1800,
		KeepInitialSeed: true,
		LocalJoinTime:   600,
		Duration:        4 * 3600,
	}
}

// Geometry returns the metainfo geometry implied by the config.
func (c *Config) Geometry() metainfo.Geometry {
	return metainfo.NewGeometry(int64(c.NumPieces)*int64(c.PieceSize), c.PieceSize)
}

// minPeerSet is the peer-set size below which a peer re-announces, and
// maxInitiated the cap on the connections it initiates. Both follow
// MaxPeerSet: mainline's 80 gives 20 and 40, and smaller peer sets scale
// them down.
func (c *Config) minPeerSet() int   { return min(20, c.MaxPeerSet/2+1) }
func (c *Config) maxInitiated() int { return max(2, c.MaxPeerSet/2) }

// validate panics on impossible configurations (programming errors, not
// user input).
func (c *Config) validate() {
	switch {
	case c.NumPieces <= 0 || c.PieceSize <= 0:
		panic("swarm: bad geometry")
	case c.InitialSeeds < 0 || c.InitialLeechers < 0:
		panic("swarm: negative population")
	case c.MaxPeerSet <= 0:
		panic("swarm: bad peer set limits")
	case c.Duration <= 0:
		panic("swarm: bad duration")
	case math.IsNaN(c.ArrivalRate) || c.ArrivalRate < 0:
		panic("swarm: bad arrival rate")
	}
}
