package scenario

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"rarestfirst/internal/adversary"
	"rarestfirst/internal/netem"
	"rarestfirst/internal/swarm"
)

// Kind is a perturbation kind, named after the Spec field that holds it.
// Each kind has a catalog: netem.Plans (Faults), crashPlans (Crashes) and
// adversary.Models (Adversary). Their names are disjoint
// (TestPerturbCatalogsDisjoint), so a bare name selects its kind.
type Kind string

const (
	KindFaults    Kind = "Faults"
	KindCrashes   Kind = "Crashes"
	KindAdversary Kind = "Adversary"
)

// Kinds lists every perturbation kind, in Spec field order.
var Kinds = [...]Kind{KindFaults, KindCrashes, KindAdversary}

// KindOf is the one lookup over the three catalogs: the kind of the entry
// called name, and false when no catalog has it.
func KindOf(name string) (Kind, bool) {
	for _, k := range Kinds {
		if slices.Contains(k.Names(), name) {
			return k, true
		}
	}
	return "", false
}

// Names returns the sorted names of kind k's catalog.
func (k Kind) Names() []string {
	switch k {
	case KindFaults:
		return sortedKeys(netem.Plans)
	case KindCrashes:
		return sortedKeys(crashPlans)
	case KindAdversary:
		return sortedKeys(adversary.Models)
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PerturbCatalog renders every catalog, kind by kind, for usage and error
// text.
func PerturbCatalog() string {
	parts := make([]string, len(Kinds))
	for i, k := range Kinds {
		parts[i] = string(k) + ": " + strings.Join(k.Names(), ", ")
	}
	return strings.Join(parts, "; ")
}

// Perturbation returns the Spec field that names s's perturbation of kind
// k.
func (s *Spec) Perturbation(k Kind) *string {
	switch k {
	case KindFaults:
		return &s.Faults
	case KindCrashes:
		return &s.Crashes
	case KindAdversary:
		return &s.Adversary
	}
	panic("scenario: unknown perturbation kind " + string(k))
}

// Perturbations is a spec's resolved perturbation set, read by both
// backends. A zero member means that kind is off.
type Perturbations struct {
	Faults    netem.Plan
	Crashes   CrashPlan
	Adversary adversary.Model
	// AdversaryNoBan is Spec.AdversaryNoBan.
	AdversaryNoBan bool
}

// Any reports whether any perturbation is on.
func (p Perturbations) Any() bool {
	return p.Faults.Enabled() || p.Crashes.Enabled() || !p.Adversary.IsZero()
}

// Perturbations resolves the spec's Faults, Crashes and Adversary names
// against their catalogs. A name that is in no catalog, or in another
// kind's, is an error.
func (s Spec) Perturbations() (Perturbations, error) {
	for _, k := range Kinds {
		if name := *s.Perturbation(k); name != "" && !slices.Contains(k.Names(), name) {
			return Perturbations{}, fmt.Errorf("scenario: unknown %s %q (have: %s)", k, name, strings.Join(k.Names(), ", "))
		}
	}
	return Perturbations{
		Faults:         netem.Plans[s.Faults],
		Crashes:        crashPlans[s.Crashes],
		Adversary:      adversary.Models[s.Adversary],
		AdversaryNoBan: s.AdversaryNoBan,
	}, nil
}

// simulate maps the perturbations onto the simulator's knobs. Fractional
// timing is anchored to the simulated run window, as the live backend
// anchors it to the deadline.
func (p Perturbations) simulate(cfg *swarm.Config) {
	window := cfg.LocalJoinTime + cfg.Duration
	if f := p.Faults; f.Enabled() {
		cfg.Chaos = &swarm.Chaos{
			// Connection setup is the only place propagation delay can act
			// in the fluid model (control traffic is instantaneous).
			ConnSetupDelay:       (f.DelayMs + float64(f.JitterMs/2)) / 1000, // float64: no fused multiply-add
			DialFailRate:         f.DialFailRate,
			ConnResetRate:        f.ConnResetRate + f.ConnStallRate,
			ConnResetMeanDelay:   f.FaultDelay() * window,
			TrackerBlackoutStart: f.BlackoutStartFrac * window,
			TrackerBlackoutEnd:   f.BlackoutEndFrac * window,
		}
		if f.SeedSlowFactor > 0 {
			cfg.InitialSeedUp *= f.SeedSlowFactor
		}
		if f.SeedFailFrac > 0 && cfg.InitialSeedLeaveAt == 0 {
			cfg.InitialSeedLeaveAt = f.SeedFailFrac * window
		}
	}
	if c := p.Crashes; c.Enabled() {
		cfg.Crashes = &swarm.Crashes{
			Frac:         c.Frac,
			WindowStart:  c.StartFrac * window,
			WindowEnd:    c.EndFrac * window,
			MeanDowntime: c.DowntimeFrac * window,
			RetainFrac:   c.RetainFrac,
			DropAllFirst: c.CorruptResume,
		}
	}
	if m := p.Adversary; !m.IsZero() {
		cfg.Adversary = &swarm.Adversary{
			Fraction:   m.Fraction,
			PoisonRate: m.PoisonRate,
			FakeHaves:  m.FakeHaves,
			Flood:      m.FloodRPS > 0,
			NoBan:      p.AdversaryNoBan,
		}
	}
}

// CrashPlan is one named crash schedule: which fraction of a swarm's
// leechers are killed mid-transfer, when, for how long, and how much of
// their verified content survives the restart. The live backend SIGKILLs
// and restarts real clients from a ResumeDir; the simulator maps the plan
// onto swarm.Crashes. Victims, kill points and downtimes derive from the
// run seed, so a (plan, seed) pair replays the same schedule.
type CrashPlan struct {
	Name string

	// Frac is the fraction of eligible leechers that crash once during
	// the run. 0 disables the plan (Enabled reports false).
	Frac float64

	// StartFrac and EndFrac bound the kill window. Each victim draws one
	// uniform value in [StartFrac, EndFrac). The simulator reads the
	// draw as a fraction of the configured duration (a kill instant);
	// the live backend reads the same draw as a progress threshold —
	// the victim is SIGKILLed when its verified piece count crosses
	// that fraction of the torrent — because on real TCP wall-clock is
	// not a reliable proxy for "mid-transfer".
	StartFrac float64
	EndFrac   float64

	// DowntimeFrac is the mean downtime between kill and restart, as a
	// fraction of the run's deadline.
	DowntimeFrac float64
	// RetainFrac is the probability each verified piece survives the
	// crash. 1 models a clean resume file; lower values model partial
	// loss (amnesia), drawn per-piece from the engine RNG on the
	// simulator. The live store keeps every piece it verified — durable
	// retention is the point — so sub-1 retention is a sim-side model;
	// the live loss drill is CorruptResume.
	RetainFrac float64
	// CorruptResume corrupts one victim's on-disk resume data before its
	// restart: re-hash-on-load drops the corrupt pieces, counts them as
	// resume_hash_fail, and they are downloaded again.
	CorruptResume bool
}

// Enabled reports whether the plan actually crashes anyone.
func (p CrashPlan) Enabled() bool { return p.Frac > 0 }

// crashPlans is the crash-plan catalog (Spec.Crashes).
var crashPlans = map[string]CrashPlan{
	// kill-restart: a third of the leechers bounce, keeping every piece.
	"kill-restart": {Name: "kill-restart", Frac: 0.34, StartFrac: 0.15, EndFrac: 0.45,
		DowntimeFrac: 0.08, RetainFrac: 1},
	// kill-restart-amnesia: the same, but each piece survives with p=0.5.
	"kill-restart-amnesia": {Name: "kill-restart-amnesia", Frac: 0.34, StartFrac: 0.15, EndFrac: 0.45,
		DowntimeFrac: 0.08, RetainFrac: 0.5},
	// kill-corrupt: kill-restart plus one corrupted resume store.
	"kill-corrupt": {Name: "kill-corrupt", Frac: 0.34, StartFrac: 0.15, EndFrac: 0.45,
		DowntimeFrac: 0.08, RetainFrac: 1, CorruptResume: true},
	// flashcrowd-kill: half the flash crowd bounces, one corrupted store.
	"flashcrowd-kill": {Name: "flashcrowd-kill", Frac: 0.5, StartFrac: 0.1, EndFrac: 0.4,
		DowntimeFrac: 0.06, RetainFrac: 1, CorruptResume: true},
}
