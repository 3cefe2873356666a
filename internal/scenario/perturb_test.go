package scenario

import (
	"sort"
	"strings"
	"testing"

	"rarestfirst/internal/adversary"
	"rarestfirst/internal/netem"
	"rarestfirst/internal/swarm"
)

// TestPerturbCatalogsDisjoint: every catalog name resolves under exactly
// one kind, the kind whose catalog lists it, so a bare -perturb name
// selects its Spec field.
func TestPerturbCatalogsDisjoint(t *testing.T) {
	seen := map[string]Kind{}
	for _, k := range Kinds {
		names := k.Names()
		if len(names) == 0 {
			t.Fatalf("%s catalog is empty", k)
		}
		if !sort.StringsAreSorted(names) {
			t.Fatalf("%s names not sorted: %v", k, names)
		}
		for _, name := range names {
			if prev, dup := seen[name]; dup {
				t.Fatalf("%q is both a %s and a %s", name, prev, k)
			}
			seen[name] = k
			if got, ok := KindOf(name); !ok || got != k {
				t.Fatalf("KindOf(%q) = %q, %v; want %q", name, got, ok, k)
			}
		}
	}
	if _, ok := KindOf("no-such-perturbation"); ok {
		t.Fatal("unknown name resolved")
	}
	if _, ok := KindOf(""); ok {
		t.Fatal("empty name resolved")
	}
	for name, p := range crashPlans {
		if p.Name != name || !p.Enabled() {
			t.Fatalf("crash plan %q: stored name %q, enabled %v", name, p.Name, p.Enabled())
		}
	}
}

// TestPerturbationsResolve: each catalog name in its own field resolves
// to its catalog entry; a name in another kind's field, or in none, is
// rejected by the resolver and by the simulator's Config alike.
func TestPerturbationsResolve(t *testing.T) {
	for _, k := range Kinds {
		for _, name := range k.Names() {
			var sp Spec
			*sp.Perturbation(k) = name
			p, err := sp.Perturbations()
			if err != nil {
				t.Fatalf("%s %q: %v", k, name, err)
			}
			if !p.Any() {
				t.Fatalf("%s %q resolved to nothing", k, name)
			}
			var got string
			switch k {
			case KindFaults:
				got = p.Faults.Name
			case KindCrashes:
				got = p.Crashes.Name
			case KindAdversary:
				got = p.Adversary.Name
			}
			if got != name {
				t.Fatalf("%s %q resolved to %q", k, name, got)
			}
			for _, other := range Kinds {
				if other == k {
					continue
				}
				sp := Spec{TorrentID: 10, Scale: tinyScale()}
				*sp.Perturbation(other) = name
				if _, err := sp.Perturbations(); err == nil || !strings.Contains(err.Error(), name) {
					t.Fatalf("%s %q accepted as a %s: %v", k, name, other, err)
				}
				if _, _, err := sp.Config(); err == nil {
					t.Fatalf("Config accepted %s %q", other, name)
				}
			}
		}
	}
	p, err := Spec{}.Perturbations()
	if err != nil || p.Any() {
		t.Fatalf("empty spec resolved to %+v, %v", p, err)
	}
	if _, err := (Spec{Faults: "no-such-plan"}).Perturbations(); err == nil {
		t.Fatal("unknown fault plan accepted")
	}
	p, err = Spec{Adversary: "poison25", AdversaryNoBan: true}.Perturbations()
	if err != nil || !p.AdversaryNoBan || p.Adversary != adversary.Models["poison25"] {
		t.Fatalf("adversary resolved to %+v, %v", p, err)
	}
}

// TestZeroFaultDelayMapsToQuarterWindow: a fault plan that leaves
// FaultDelayFrac unset means a mean reset delay of 0.25 of the run window
// on the simulator, as it does on the live injector.
func TestZeroFaultDelayMapsToQuarterWindow(t *testing.T) {
	cfg := swarm.DefaultConfig()
	cfg.LocalJoinTime, cfg.Duration = 100, 700
	plan := netem.Plan{Name: "resets", ConnResetRate: 0.2}
	Perturbations{Faults: plan}.simulate(&cfg)
	if cfg.Chaos == nil {
		t.Fatal("fault plan mapped to no chaos")
	}
	if got, want := cfg.Chaos.ConnResetMeanDelay, 0.25*800; got != want {
		t.Fatalf("mean reset delay %v, want %v", got, want)
	}
	if plan.FaultDelay() != 0.25 {
		t.Fatalf("live injector mean delay frac %v, want 0.25", plan.FaultDelay())
	}
	for name, p := range netem.Plans {
		if p.ConnResetRate+p.ConnStallRate > 0 && p.FaultDelayFrac == 0 {
			t.Errorf("catalog plan %q has resets but no explicit FaultDelayFrac", name)
		}
	}
	plan.FaultDelayFrac = 0.1
	cfg.Chaos = nil
	Perturbations{Faults: plan}.simulate(&cfg)
	if got, want := cfg.Chaos.ConnResetMeanDelay, 0.1*800; got != want {
		t.Fatalf("explicit mean reset delay %v, want %v", got, want)
	}
}
