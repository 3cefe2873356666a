package scenario

import (
	"fmt"
	"sync"

	"rarestfirst/internal/torrents"
)

// Options parameterize the expansion of a registered definition into
// concrete Specs. The public API exports it as rarestfirst.SuiteOptions.
type Options struct {
	// Scale is applied to every spec the definition builds with a zero
	// Scale; the zero value leaves the per-spec default (DefaultScale).
	Scale torrents.Scale
	// Seeds fans every built spec out into one repeat per RNG seed
	// (SeedOverride); repeats share the spec's Label, so suite
	// aggregation reports mean/stddev over the seeds. Empty means a
	// single run with the catalog seed.
	Seeds []int64
	// Torrents restricts catalog-style definitions to these Table I ids.
	// Empty means the definition's own default selection.
	Torrents []int
}

// Def is one named entry of the registry: a family of experiment Specs
// (a sweep, an ablation grid, or a single case study) that entry points
// refer to by name.
type Def struct {
	Name        string
	Description string
	// Build produces the base specs; Scenarios applies the Options
	// fan-out on top. Build must be deterministic.
	Build func(Options) []Spec
}

// Scenarios expands the definition under the options: Build, then the
// shared Scale default, then the multi-seed fan-out. The result order is
// deterministic: base-spec order, seeds innermost.
func (d Def) Scenarios(o Options) []Spec {
	base := d.Build(o)
	for i := range base {
		if base[i].Scale == (torrents.Scale{}) {
			base[i].Scale = o.Scale
		}
	}
	if len(o.Seeds) == 0 {
		return base
	}
	// Repeats keep the base Label: the label identifies the configuration
	// (the aggregation group), SeedOverride distinguishes the repeats.
	out := make([]Spec, 0, len(base)*len(o.Seeds))
	for _, sp := range base {
		for _, seed := range o.Seeds {
			rep := sp
			rep.SeedOverride = seed
			out = append(out, rep)
		}
	}
	return out
}

var (
	mu       sync.RWMutex
	registry = map[string]Def{}
)

// Register adds a definition; it panics on an empty or duplicate name
// (registration is programmer-controlled, not user input).
func Register(d Def) {
	mu.Lock()
	defer mu.Unlock()
	if d.Name == "" || d.Build == nil {
		panic("scenario: Register with empty name or nil Build")
	}
	if _, dup := registry[d.Name]; dup {
		panic("scenario: duplicate registration of " + d.Name)
	}
	registry[d.Name] = d
}

// Lookup returns the definition registered under name.
func Lookup(name string) (Def, bool) {
	mu.RLock()
	defer mu.RUnlock()
	d, ok := registry[name]
	return d, ok
}

// Names returns every registered name, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return sortedKeys(registry)
}

// All returns every registered definition, sorted by name.
func All() []Def {
	names := Names()
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Def, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// catalogIDs resolves Options.Torrents against a default selection.
func catalogIDs(o Options, def []int) []int {
	if len(o.Torrents) > 0 {
		return o.Torrents
	}
	return def
}

func allTorrentIDs() []int {
	ids := make([]int, len(torrents.TableI))
	for i := range ids {
		ids[i] = torrents.TableI[i].ID
	}
	return ids
}

// liveTwin expands one base configuration into its [sim twin, live run]
// pair. Both share the base Label — the aggregation key — and differ only
// in the backend: the sim twin runs at o.Scale (bench scale unless the
// caller overrides), the live run at the given wall-clock liveScale.
func liveTwin(o Options, base Spec, liveScale torrents.Scale) []Spec {
	sim := base
	sim.Scale = o.Scale
	if sim.Scale == (torrents.Scale{}) {
		sim.Scale = torrents.BenchScale()
	}
	lv := base
	lv.Live = true
	lv.Scale = liveScale
	return []Spec{sim, lv}
}

// The built-in catalog. Case studies come first (the torrents the paper
// singles out), then the Table I sweep, the ablation grids A1-A5, and the
// workload variants this reproduction adds (churn, slow-seed,
// seed-failure).
func init() {
	Register(Def{
		Name: "quickstart",
		Description: "torrent 10, the paper's interarrival case study: one run, " +
			"headline findings (entropy, first-pieces problem, seed fairness)",
		Build: func(o Options) []Spec {
			return []Spec{{Label: "torrent=10", TorrentID: 10}}
		},
	})
	Register(Def{
		Name: "flashcrowd",
		Description: "torrent 8, the transient-state case study: one slow initial " +
			"seed against a crowd of empty leechers (Figs 2-3)",
		Build: func(o Options) []Spec {
			return []Spec{{Label: "torrent=8", TorrentID: 8}}
		},
	})
	Register(Def{
		Name: "freeriders",
		Description: "torrent 14 with 30% free riders under the new vs old " +
			"seed-state choke algorithm (§IV-B robustness)",
		Build: func(o Options) []Spec {
			out := make([]Spec, 0, 2)
			for _, sk := range []string{SeedChokeNew, SeedChokeOld} {
				out = append(out, Spec{
					Label:             "seed-choke=" + sk,
					TorrentID:         14,
					SeedChoke:         sk,
					FreeRiderFraction: 0.3,
				})
			}
			return out
		},
	})
	Register(Def{
		Name: "huge-swarm",
		Description: "torrent 24 capped at 6000 peers with batched choke-round " +
			"lanes (intra-swarm sharding): the single-run scale ceiling",
		Build: func(o Options) []Spec {
			scale := o.Scale
			if scale == (torrents.Scale{}) {
				scale = torrents.Scale{
					MaxPeers:     6000,
					MaxContentMB: 24,
					MaxPieces:    256,
					Duration:     600,
					Warmup:       300,
					Seed:         42,
				}
			}
			return []Spec{{
				Label:      "torrent=24 lanes",
				TorrentID:  24,
				Scale:      scale,
				ChokeLanes: true,
				HeapShards: 32,
				BatchHaves: true,
			}}
		},
	})
	Register(Def{
		Name: "flash-crowd-20k",
		Description: "torrent 8 under a 48x churn stream: one slow seed takes " +
			">20k arrivals in four simulated minutes (deferred-retime stress, PR 5)",
		Build: func(o Options) []Spec {
			scale := o.Scale
			if scale == (torrents.Scale{}) {
				scale = torrents.Scale{
					MaxPeers:     20000,
					MaxContentMB: 24,
					MaxPieces:    256,
					Duration:     180,
					Warmup:       60,
					Seed:         42,
				}
			}
			return []Spec{{
				Label:      "torrent=8 flash-crowd",
				TorrentID:  8,
				Scale:      scale,
				ChokeLanes: true,
				ChurnScale: 48,
				HeapShards: 32,
				BatchHaves: true,
			}}
		},
	})
	Register(Def{
		Name: "livetransfer",
		Description: "simulator twin of the loopback TCP demo: a four-peer swarm " +
			"(one fast seed, three leechers) at miniature scale",
		Build: func(o Options) []Spec {
			scale := o.Scale
			if scale == (torrents.Scale{}) {
				scale = torrents.BenchScale()
			}
			// Shrink to the demo's population and content: the Table I
			// scaling rules keep one seed and a couple of leechers.
			scale.MaxPeers = 4
			scale.MaxContentMB = 2
			scale.MaxPieces = 8
			return []Spec{{Label: "four-peer swarm", TorrentID: 7, Scale: scale}}
		},
	})
	Register(Def{
		Name:        "catalog",
		Description: "the full Table I sweep: one instrumented run per torrent (Figs 1-11 inputs)",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, allTorrentIDs())
			out := make([]Spec, 0, len(ids))
			for _, id := range ids {
				out = append(out, Spec{Label: fmt.Sprintf("torrent=%d", id), TorrentID: id})
			}
			return out
		},
	})
	Register(Def{
		Name:        "pickers",
		Description: "A1: rarest-first vs random vs sequential vs global-rarest piece selection, torrent 10",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, []int{10})
			var out []Spec
			for _, id := range ids {
				for _, p := range []string{PickerRarestFirst, PickerRandom, PickerSequential, PickerGlobalRarest} {
					out = append(out, Spec{Label: "picker=" + p, TorrentID: id, Picker: p})
				}
			}
			return out
		},
	})
	Register(Def{
		Name:        "pickers-startup",
		Description: "A1b: rarest-first vs random during the transient startup phase, torrent 8",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, []int{8})
			var out []Spec
			for _, id := range ids {
				for _, p := range []string{PickerRarestFirst, PickerRandom} {
					out = append(out, Spec{Label: "picker=" + p, TorrentID: id, Picker: p})
				}
			}
			return out
		},
	})
	Register(Def{
		Name:        "seed-choke",
		Description: "A2: new vs old seed-state choke algorithm under 20% free riders, torrent 14",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, []int{14})
			var out []Spec
			for _, id := range ids {
				for _, sk := range []string{SeedChokeNew, SeedChokeOld} {
					out = append(out, Spec{
						Label:             "seed-choke=" + sk,
						TorrentID:         id,
						SeedChoke:         sk,
						FreeRiderFraction: 0.2,
					})
				}
			}
			return out
		},
	})
	Register(Def{
		Name:        "leecher-choke",
		Description: "A3: standard choke vs bit-level tit-for-tat (slow local uploader), torrent 14",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, []int{14})
			var out []Spec
			for _, id := range ids {
				for _, lk := range []string{LeecherChokeStandard, LeecherChokeTitForTat} {
					out = append(out, Spec{Label: "leecher-choke=" + lk, TorrentID: id, LeecherChoke: lk})
				}
			}
			return out
		},
	})
	Register(Def{
		Name:        "smart-seed",
		Description: "A4: initial-seed duplicate service with and without the idealized coding policy, torrent 8",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, []int{8})
			var out []Spec
			for _, id := range ids {
				for _, smart := range []bool{false, true} {
					label := "serve=client-pick"
					if smart {
						label = "serve=smart"
					}
					out = append(out, Spec{Label: label, TorrentID: id, SmartSeedServe: smart})
				}
			}
			return out
		},
	})
	Register(Def{
		Name:        "freerider-sweep",
		Description: "A5: free-rider penalty at 10/30/50% free-rider fractions, torrent 14",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, []int{14})
			var out []Spec
			for _, id := range ids {
				for _, frac := range []float64{0.1, 0.3, 0.5} {
					out = append(out, Spec{
						Label:             fmt.Sprintf("freeriders=%.0f%%", frac*100),
						TorrentID:         id,
						FreeRiderFraction: frac,
					})
				}
			}
			return out
		},
	})
	Register(Def{
		Name: "churn",
		Description: "workload variant: torrent 7 under 0.5x/1x/2x/4x leecher arrival " +
			"rates — does rarest first hold entropy under churn pressure?",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, []int{7})
			var out []Spec
			for _, id := range ids {
				for _, ch := range []float64{0.5, 1, 2, 4} {
					out = append(out, Spec{
						Label:      fmt.Sprintf("churn=%.1fx", ch),
						TorrentID:  id,
						ChurnScale: ch,
					})
				}
			}
			return out
		},
	})
	Register(Def{
		Name: "slow-seed",
		Description: "workload variant: torrent 8's initial seed at 1x/0.5x/0.25x capacity — " +
			"the transient phase stretches as rare-piece service slows",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, []int{8})
			var out []Spec
			for _, id := range ids {
				for _, f := range []float64{1, 0.5, 0.25} {
					out = append(out, Spec{
						Label:       fmt.Sprintf("seed-up=%.2fx", f),
						TorrentID:   id,
						SeedUpScale: f,
					})
				}
			}
			return out
		},
	})
	// The live-* family: each definition pairs a simulator twin with a
	// real-TCP loopback swarm under ONE label, so suite aggregation
	// yields one sim group and one live group per configuration and the
	// suite report can cross-validate them side by side. Live scales are
	// wall-clock: Duration is the swarm deadline in real seconds.
	Register(Def{
		Name: "live-casestudy",
		Description: "sim-vs-live twin of the torrent 10 case study: a real-TCP " +
			"loopback swarm (1 seed, 4 leechers, 1 MiB) against its bench-scale sim twin",
		Build: func(o Options) []Spec {
			return liveTwin(o, Spec{TorrentID: 10, Label: "case-study"},
				torrents.Scale{MaxPeers: 5, MaxContentMB: 1, MaxPieces: 32, Duration: 90})
		},
	})
	Register(Def{
		Name: "live-flashcrowd",
		Description: "sim-vs-live twin of the torrent 8 flash crowd: a slow real " +
			"initial seed against a crowd of empty loopback leechers",
		Build: func(o Options) []Spec {
			specs := liveTwin(o, Spec{TorrentID: 8, Label: "flash-crowd"},
				torrents.Scale{MaxPeers: 6, MaxContentMB: 1, MaxPieces: 32, Duration: 120})
			// The live seed runs at a quarter of the lab default so the
			// transient phase (rare pieces draining off the seed) is
			// observable at loopback speed, as in the sim twin.
			specs[1].SeedUpScale = 0.25
			return specs
		},
	})
	Register(Def{
		Name: "live-seedfailure",
		Description: "sim-vs-live twin of the seed-failure injection: the initial " +
			"seed departs mid-transient and the real-TCP torrent dies too",
		Build: func(o Options) []Spec {
			specs := liveTwin(o, Spec{TorrentID: 8, Label: "seed=leaves"},
				torrents.Scale{MaxPeers: 5, MaxContentMB: 1, MaxPieces: 32, Duration: 15})
			specs[0].InitialSeedLeavesAt = 900 // sim seconds, mid-transient
			specs[1].InitialSeedLeavesAt = 1   // wall seconds
			specs[1].SeedUpScale = 0.25
			return specs
		},
	})
	Register(Def{
		Name: "seed-failure",
		Description: "failure injection: torrent 8's initial seed departs mid-transient — " +
			"\"a torrent is alive as long as there is at least one copy of each piece\"",
		Build: func(o Options) []Spec {
			ids := catalogIDs(o, []int{8})
			var out []Spec
			for _, id := range ids {
				out = append(out,
					Spec{Label: "seed=stays", TorrentID: id},
					Spec{Label: "seed=leaves@900s", TorrentID: id, InitialSeedLeavesAt: 900},
				)
			}
			return out
		},
	})
	Register(Def{
		Name: "chaos-flashcrowd",
		Description: "sim-vs-live chaos twin: the torrent 8 flash crowd under the " +
			"\"chaos\" fault plan — tracker blackout mid-run, 10% connection " +
			"resets, and a slow initial seed that fails halfway through",
		Build: func(o Options) []Spec {
			specs := liveTwin(o, Spec{TorrentID: 8, Label: "chaos-flash-crowd", Faults: "chaos"},
				torrents.Scale{MaxPeers: 6, MaxContentMB: 1, MaxPieces: 32, Duration: 12})
			specs[1].SeedUpScale = 0.5
			return specs
		},
	})
	Register(Def{
		Name: "chaos-wan",
		Description: "sim-vs-live chaos twin: the torrent 10 case study on the " +
			"\"wan\" plan — real propagation delay, jitter and a 1 MiB/s " +
			"shaped pipe, no faults",
		Build: func(o Options) []Spec {
			return liveTwin(o, Spec{TorrentID: 10, Label: "chaos-wan", Faults: "wan"},
				torrents.Scale{MaxPeers: 5, MaxContentMB: 1, MaxPieces: 32, Duration: 60})
		},
	})
	// The adv-* family: Byzantine swarm hardening scenarios. Each pairs a
	// sim twin with a real-TCP loopback swarm under one label (like the
	// chaos-* twins) with the invariant checker on, so the suite report
	// cross-validates the fault/ban counters across backends.
	Register(Def{
		Name: "adv-poison",
		Description: "sim-vs-live Byzantine twin: torrent 10 with a 25% piece-poisoner " +
			"population (poison25) — provenance tracking bans the poisoners and " +
			"every honest leecher still completes verified content; a third " +
			"sim spec disables banning to measure the wasted bandwidth",
		Build: func(o Options) []Spec {
			specs := liveTwin(o, Spec{TorrentID: 10, Label: "adv=poison25",
				Adversary: "poison25", DebugChecks: true},
				torrents.Scale{MaxPeers: 6, MaxContentMB: 1, MaxPieces: 32, Duration: 60})
			noban := specs[0]
			noban.Label = "adv=poison25 noban"
			noban.AdversaryNoBan = true
			return append(specs, noban)
		},
	})
	Register(Def{
		Name: "adv-liar",
		Description: "sim-vs-live Byzantine twin: torrent 10 with a 25% bitfield-liar " +
			"population (liar25) — fake HAVEs stall requests into timeouts until " +
			"the liars are struck and banned",
		Build: func(o Options) []Spec {
			return liveTwin(o, Spec{TorrentID: 10, Label: "adv=liar25",
				Adversary: "liar25", DebugChecks: true},
				torrents.Scale{MaxPeers: 6, MaxContentMB: 1, MaxPieces: 32, Duration: 60})
		},
	})
	Register(Def{
		Name: "adv-flood",
		Description: "sim-vs-live Byzantine twin: torrent 10 with a 25% request-flooder " +
			"population (flood25) — choked-request abuse trips the flood limiter " +
			"live, tracker hammering is absorbed in the sim",
		Build: func(o Options) []Spec {
			return liveTwin(o, Spec{TorrentID: 10, Label: "adv=flood25",
				Adversary: "flood25", DebugChecks: true},
				torrents.Scale{MaxPeers: 6, MaxContentMB: 1, MaxPieces: 32, Duration: 60})
		},
	})
	Register(Def{
		Name: "chaos-flaky",
		Description: "sim-vs-live chaos twin: torrent 10 on the \"flaky\" plan — " +
			"15% failed dials, resets and half-open stalls exercising retry, " +
			"re-request and snubbing",
		Build: func(o Options) []Spec {
			return liveTwin(o, Spec{TorrentID: 10, Label: "chaos-flaky", Faults: "flaky"},
				torrents.Scale{MaxPeers: 5, MaxContentMB: 1, MaxPieces: 32, Duration: 45})
		},
	})
	// The crash-* family: crash-recovery scenarios. Sim peers crash and
	// rejoin with retained pieces (availability dec/re-inc audited by the
	// invariant checker); live peers are SIGKILLed mid-transfer and
	// restarted over their durable resume directories. The flash-crowd
	// entry is a sim-vs-live twin under one label, like chaos-*/adv-*.
	Register(Def{
		Name: "crash-flashcrowd",
		Description: "sim-vs-live crash twin: the torrent 8 flash crowd on the " +
			"\"flashcrowd-kill\" plan — half the non-instrumented leechers are " +
			"SIGKILLed mid-transfer and restarted from durable resume state; " +
			"one victim's resume data is corrupted so the re-hash-on-load " +
			"contract is exercised end to end",
		Build: func(o Options) []Spec {
			specs := liveTwin(o, Spec{TorrentID: 8, Label: "crash-flash-crowd",
				Crashes: "flashcrowd-kill", DebugChecks: true},
				torrents.Scale{MaxPeers: 6, MaxContentMB: 1, MaxPieces: 32, Duration: 60})
			return specs
		},
	})
	Register(Def{
		Name: "crash-restart",
		Description: "sim crash-recovery grid on torrent 10: kill-restart (full " +
			"resume), kill-restart-amnesia (half the verified pieces survive) " +
			"and kill-corrupt (the first victim loses every piece to failed " +
			"re-hashes), invariant checker on",
		Build: func(o Options) []Spec {
			var out []Spec
			for _, plan := range []string{"kill-restart", "kill-restart-amnesia", "kill-corrupt"} {
				out = append(out, Spec{
					Label:       "crash=" + plan,
					TorrentID:   10,
					Crashes:     plan,
					DebugChecks: true,
				})
			}
			return out
		},
	})
}
