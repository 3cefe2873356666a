// Package scenario is the experiment-description layer shared by the
// public rarestfirst API, the cmd binaries and the examples: a Spec is the
// full parameterization of one instrumented swarm run (Table I torrent,
// scale, picker/choker selection, ablation switches, churn and seed-rate
// variants), and the registry (registry.go) names the recurring Spec
// families — the paper's catalog sweeps and ablation grids plus the
// workload variants the reproduction adds — so every entry point builds
// experiments the same way instead of hand-rolling its own setup.
package scenario

import (
	"fmt"

	"rarestfirst/internal/swarm"
	"rarestfirst/internal/torrents"
)

// Piece selection strategies accepted by Spec.Picker.
const (
	PickerRarestFirst  = "rarest-first"  // the paper's algorithm (default)
	PickerRandom       = "random"        // baseline the paper cites as inferior
	PickerSequential   = "sequential"    // in-order worst case
	PickerGlobalRarest = "global-rarest" // oracle with global knowledge
)

// Seed-state choke algorithms accepted by Spec.SeedChoke.
const (
	SeedChokeNew = "new" // mainline >= 4.0.0, the paper's subject (default)
	SeedChokeOld = "old" // pre-4.0.0 upload-rate algorithm (baseline)
)

// Leecher-state choke algorithms accepted by Spec.LeecherChoke.
const (
	LeecherChokeStandard  = "standard"    // 3 RU / 10 s + 1 OU / 30 s (default)
	LeecherChokeTitForTat = "tit-for-tat" // bit-level TFT baseline
)

// Spec describes one experiment. It is the only declaration of the
// experiment knobs: the public API exports it as rarestfirst.Scenario (a
// type alias, so the two are the same type), and Config maps it onto
// swarm.Config for the registry, the cmd binaries and the examples alike.
// Its JSON encoding is part of every Report line; the omitempty tags keep
// reports of runs that leave those knobs off serializing exactly as they
// did before the knob existed.
type Spec struct {
	// Label names the spec inside a suite (e.g. "picker=random"); it does
	// not affect the run. Suite aggregation groups repeats of the same
	// configuration under one label.
	Label string
	// TorrentID selects a Table I torrent (1..26).
	TorrentID int
	// Live runs the spec as a real-TCP loopback swarm (internal/live)
	// instead of a discrete-event simulation: one HTTP tracker plus an
	// instrumented client swarm whose traces flow through the same report
	// pipeline. Scale is then read at wall-clock granularity (Duration =
	// swarm deadline in real seconds; MaxPeers/MaxContentMB/MaxPieces
	// bound the loopback swarm) and only the paper's default algorithms
	// are supported.
	Live bool `json:",omitempty"`
	// Scale bounds the simulation; zero value means torrents.DefaultScale.
	Scale torrents.Scale
	// Picker selects the swarm-wide piece selection strategy ("" =
	// rarest-first).
	Picker string
	// SeedChoke selects the seed-state algorithm ("" = new).
	SeedChoke string
	// LeecherChoke selects the leecher-state algorithm ("" = standard).
	LeecherChoke string
	// TFTDeficitBytes is the tit-for-tat deficit threshold (default 2 MiB).
	TFTDeficitBytes int64
	// FreeRiderFraction of leechers never upload.
	FreeRiderFraction float64
	// LocalFreeRider makes the instrumented peer itself a free rider.
	LocalFreeRider bool
	// SmartSeedServe enables the idealized coding / super-seeding serve
	// policy on the initial seed (ablation A4).
	SmartSeedServe bool
	// DisableRandomFirst turns the random-first policy off swarm-wide.
	DisableRandomFirst bool
	// BoostNewcomers enables the §VI extension: exploratory unchoke slots
	// prefer peers that have no pieces yet, attacking the first-blocks
	// problem the paper identifies.
	BoostNewcomers bool
	// InitialSeedLeavesAt injects a failure: the initial seed departs at
	// this simulated time (0 = never). With rare pieces still out, the
	// torrent dies — "a torrent is alive as long as there is at least one
	// copy of each piece".
	InitialSeedLeavesAt float64
	// SeedOverride, when nonzero, replaces the catalog RNG seed for
	// repeat runs. It is mixed with the torrent id (see MixSeed), not used
	// verbatim, so that torrents whose scaled-down configs coincide still
	// run decorrelated; the same (SeedOverride, TorrentID) pair always
	// reproduces the same run.
	SeedOverride int64

	// ChokeLanes puts every simulated peer's first choke round on the
	// global 10-second grid instead of a random point of its first
	// interval, so all rounds fire on multiples of 10 s
	// (swarm.Config.ChokeLanes). Each round is the ordinary serial one.
	// Runs stay bit-reproducible, but the round schedule differs from the
	// default staggered rounds, so this is off unless a scenario opts in
	// (the huge-swarm and flash-crowd-20k suites do).
	ChokeLanes bool `json:",omitempty"`

	// HeapShards has no effect: the simulation engine's event queue is
	// one heap. It is kept only because bench/ sets it, and a report
	// still echoes it with the rest of its Scenario.
	HeapShards int `json:",omitempty"`

	// BatchHaves has no effect: a piece completion's HAVE reactions always
	// run inline. It is kept only because bench/ sets it, and a report
	// still echoes it with the rest of its Scenario.
	BatchHaves bool `json:",omitempty"`

	// Faults, Adversary and Crashes each name one perturbation from its
	// kind's catalog (perturb.go): a netem fault plan ("wan", "flaky",
	// "blackout", "chaos"; README Robustness), a Byzantine peer model
	// ("poison25", "liar25", "flood25"; README Adversarial peers) and a
	// crash plan ("kill-restart", "kill-restart-amnesia", "kill-corrupt",
	// "flashcrowd-kill"; README Crash recovery). Both backends realize
	// the same resolved plans (Spec.Perturbations) with seed-derived
	// schedules, so a chaos-*, adv-* or crash-* suite cross-validates
	// them. "" (the default) adds nothing.
	Faults    string `json:",omitempty"`
	Adversary string `json:",omitempty"`
	// AdversaryNoBan disables the poisoner ban response (measurement
	// mode): hash failures and wasted bytes are counted but suspects are
	// never banned.
	AdversaryNoBan bool   `json:",omitempty"`
	Crashes        string `json:",omitempty"`
	// DebugChecks enables the swarm invariant checker on simulated runs
	// (swarm.Config.Invariants): pure-read audits (availability counts vs
	// advertised bitfields, no banned peer still connected, requester
	// bookkeeping consistency) that panic on violation and never perturb
	// the trajectory — golden digests are identical with the checker on
	// or off.
	DebugChecks bool `json:",omitempty"`

	// Workload variants beyond the paper's ablation switches. All three
	// are multipliers applied after the Table I scaling rules; 0 means
	// "unchanged" so the zero Spec still reproduces the catalog exactly.

	// ChurnScale multiplies the leecher arrival rate.
	ChurnScale float64
	// SeedUpScale multiplies the initial seed's upload capacity.
	SeedUpScale float64
	// AbortScale multiplies the pre-completion departure hazard.
	AbortScale float64
}

// MixSeed combines a user repeat seed with a torrent id into one RNG
// seed via a splitmix64-style finalizer: deterministic, and free of the
// collision classes a linear combination has. The live lab reuses it to
// derive per-client seeds, so it is part of the reproducibility contract.
func MixSeed(seed int64, id int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*uint64(uint32(id))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// Config maps the spec onto the internal swarm configuration. Live specs
// are rejected: they resolve through internal/live.FromSpec instead, and
// silently simulating one would let a live scenario masquerade as its own
// sim twin.
func (s Spec) Config() (swarm.Config, torrents.Spec, error) {
	if s.Live {
		return swarm.Config{}, torrents.Spec{}, fmt.Errorf("scenario: %q is a live spec; it runs on the TCP backend, not the simulator", s.Label)
	}
	spec, ok := torrents.ByID(s.TorrentID)
	if !ok {
		return swarm.Config{}, torrents.Spec{}, fmt.Errorf("scenario: no torrent %d in Table I", s.TorrentID)
	}
	scale := s.Scale
	if scale == (torrents.Scale{}) {
		scale = torrents.DefaultScale()
	}
	cfg := spec.Config(scale)
	if s.SeedOverride != 0 {
		// Decorrelate torrents under a shared repeat seed: two torrents
		// whose scaled-down configs coincide (e.g. 7 and 10 at bench
		// scale) must not collapse into bit-identical runs. A linear
		// offset (seed + 1000*ID) would collide again whenever user
		// seeds differ by the right multiple, so mix seed and ID
		// non-linearly instead.
		cfg.Seed = MixSeed(s.SeedOverride, spec.ID)
	}
	switch s.Picker {
	case "", PickerRarestFirst:
		cfg.Picker = swarm.PickRarestFirst
	case PickerRandom:
		cfg.Picker = swarm.PickRandom
	case PickerSequential:
		cfg.Picker = swarm.PickSequential
	case PickerGlobalRarest:
		cfg.Picker = swarm.PickGlobalRarest
	default:
		return swarm.Config{}, spec, fmt.Errorf("scenario: unknown picker %q", s.Picker)
	}
	switch s.SeedChoke {
	case "", SeedChokeNew:
		cfg.SeedChoker = swarm.SeedChokeNew
	case SeedChokeOld:
		cfg.SeedChoker = swarm.SeedChokeOld
	default:
		return swarm.Config{}, spec, fmt.Errorf("scenario: unknown seed choker %q", s.SeedChoke)
	}
	switch s.LeecherChoke {
	case "", LeecherChokeStandard:
		cfg.LeecherChoker = swarm.LeecherChokeStandard
	case LeecherChokeTitForTat:
		cfg.LeecherChoker = swarm.LeecherChokeTitForTat
		cfg.TFTDeficitLimit = s.TFTDeficitBytes
		if cfg.TFTDeficitLimit == 0 {
			cfg.TFTDeficitLimit = 2 << 20
		}
	default:
		return swarm.Config{}, spec, fmt.Errorf("scenario: unknown leecher choker %q", s.LeecherChoke)
	}
	if s.ChurnScale < 0 || s.SeedUpScale < 0 || s.AbortScale < 0 {
		return swarm.Config{}, spec, fmt.Errorf("scenario: negative variant multiplier in %+v", s)
	}
	if s.ChurnScale > 0 {
		cfg.ArrivalRate *= s.ChurnScale
	}
	if s.SeedUpScale > 0 {
		cfg.InitialSeedUp *= s.SeedUpScale
	}
	if s.AbortScale > 0 {
		cfg.AbortRate *= s.AbortScale
	}
	cfg.ChokeLanes = s.ChokeLanes
	cfg.FreeRiderFraction = s.FreeRiderFraction
	cfg.LocalFreeRider = s.LocalFreeRider
	cfg.SmartSeedServe = s.SmartSeedServe
	cfg.DisableRandomFirst = s.DisableRandomFirst
	cfg.BoostNewcomers = s.BoostNewcomers
	cfg.InitialSeedLeaveAt = s.InitialSeedLeavesAt
	p, err := s.Perturbations()
	if err != nil {
		return swarm.Config{}, spec, err
	}
	p.simulate(&cfg)
	cfg.Invariants = s.DebugChecks
	return cfg, spec, nil
}
