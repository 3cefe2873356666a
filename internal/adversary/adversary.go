// Package adversary defines Byzantine peer models for the live lab and
// the simulator: piece poisoners that corrupt a seeded fraction of the
// blocks they serve, bitfield/HAVE liars that advertise pieces they do
// not hold (stalling their victims into request timeouts), and request
// flooders that spam the wire regardless of choke state.
//
// Models live in a named catalog (Models), beside internal/netem's fault
// plans: a scenario spec names a model, both backends realize it. The
// determinism contract matches the rest of the repo — the simulator
// drives every adversarial decision from the engine RNG (bitwise
// reproducible), while a live Behavior derives all of its decisions
// from its own seed, so a live run is schedule-deterministic: the same
// seed yields the same poison/lie decisions in the same per-peer order,
// even though wall-clock interleaving varies.
package adversary

import (
	"math/rand"
	"sync"
	"time"
)

// Model describes one adversarial population mixed into a swarm.
// A zero Model means "no adversary".
type Model struct {
	// Name identifies the model in scenario specs and reports.
	Name string

	// Fraction is the share of the peer population that is adversarial
	// (the simulator draws each arriving leecher against it; the live
	// lab provisions round(Fraction·population) extra adversarial
	// clients).
	Fraction float64

	// PoisonRate, when > 0, makes adversarial peers corrupt each
	// outbound block with this probability before sending it.
	PoisonRate float64

	// FakeHaves makes adversarial peers advertise a full bitfield
	// regardless of what they hold, baiting requests they never serve.
	FakeHaves bool

	// FloodRPS, when > 0, makes adversarial peers spam piece requests
	// at roughly this rate per connection, ignoring choke state.
	FloodRPS float64
}

// Kind returns a short label for the model's dominant behaviour.
func (m Model) Kind() string {
	switch {
	case m.PoisonRate > 0:
		return "poison"
	case m.FakeHaves:
		return "liar"
	case m.FloodRPS > 0:
		return "flood"
	default:
		return "none"
	}
}

// IsZero reports whether the model describes no adversary at all.
func (m Model) IsZero() bool {
	return m.Fraction == 0 && m.PoisonRate == 0 && !m.FakeHaves && m.FloodRPS == 0
}

// Models is the adversary catalog: scenario specs name an entry in
// Spec.Adversary.
var Models = map[string]Model{
	"poison25": {
		Name:       "poison25",
		Fraction:   0.25,
		PoisonRate: 0.5,
	},
	"liar25": {
		Name:      "liar25",
		Fraction:  0.25,
		FakeHaves: true,
	},
	"flood25": {
		Name:     "flood25",
		Fraction: 0.25,
		FloodRPS: 200,
	},
}

// Behavior is one live client's seeded realization of a Model. All
// random decisions flow through a private RNG under a mutex, so a
// Behavior is safe for use from every peer-connection goroutine and
// fully determined by (model, seed).
type Behavior struct {
	model Model

	mu  sync.Mutex
	rng *rand.Rand
}

// New realizes model for one client with the given seed.
func New(model Model, seed int64) *Behavior {
	return &Behavior{model: model, rng: rand.New(rand.NewSource(seed))}
}

// Model returns the model this behavior realizes.
func (b *Behavior) Model() Model { return b.model }

// FakeHaves reports whether this peer advertises pieces it does not
// hold.
func (b *Behavior) FakeHaves() bool { return b.model.FakeHaves }

// FloodInterval returns the per-connection request-flood interval, or 0
// when this peer does not flood.
func (b *Behavior) FloodInterval() time.Duration {
	if b.model.FloodRPS <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / b.model.FloodRPS)
}

// MaybePoison corrupts block in place with probability PoisonRate and
// reports whether it did. The corruption flips bits in a handful of
// positions drawn from the same RNG, so the block still has the right
// length but can never pass piece verification.
func (b *Behavior) MaybePoison(block []byte) bool {
	if b.model.PoisonRate <= 0 || len(block) == 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rng.Float64() >= b.model.PoisonRate {
		return false
	}
	for i := 0; i < 4; i++ {
		pos := b.rng.Intn(len(block))
		block[pos] ^= 0xff
	}
	return true
}

// FloodPiece draws a piece index in [0, numPieces) to target with a
// flood request.
func (b *Behavior) FloodPiece(numPieces int) int {
	if numPieces <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rng.Intn(numPieces)
}
