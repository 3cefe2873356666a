// Package rarestfirst reproduces Legout, Urvoy-Keller & Michiardi, "Rarest
// First and Choke Algorithms Are Enough" (ACM SIGCOMM/USENIX IMC 2006).
//
// The package is the public face of the repository: it configures and runs
// instrumented swarm experiments over the paper's 26-torrent catalog
// (Table I) and derives the exact statistics the paper plots — entropy
// characterization (Fig 1), piece replication dynamics (Figs 2–6),
// piece/block interarrival CDFs (Figs 7–8), choke fairness (Figs 9 and 11)
// and unchoke/interest correlation (Fig 10) — plus the A1–A5 ablations the
// README "Scenario catalog" lists.
//
// The algorithms under evaluation live in internal/core and are shared,
// unchanged, between the discrete-event simulator (internal/swarm) and a
// real TCP BitTorrent client (internal/client).
//
// Quick start:
//
//	rep, err := rarestfirst.Run(rarestfirst.Scenario{TorrentID: 7, Scale: rarestfirst.BenchScale()})
//	if err != nil { ... }
//	rep.WriteText(os.Stdout)
package rarestfirst

import (
	"rarestfirst/internal/scenario"
	"rarestfirst/internal/swarm"
	"rarestfirst/internal/torrents"
)

// Scale bounds an experiment's size: populations and content above the
// caps are scaled down preserving the seed:leecher ratio. It is
// torrents.Scale, declared once there.
type Scale = torrents.Scale

// DefaultScale is the scale cmd/experiments uses: every Table I torrent
// runs in seconds to a few tens of seconds of wall-clock time.
func DefaultScale() Scale { return torrents.DefaultScale() }

// BenchScale is the reduced scale bench_test.go uses.
func BenchScale() Scale { return torrents.BenchScale() }

// Piece selection strategies accepted by Scenario.Picker.
const (
	PickerRarestFirst  = scenario.PickerRarestFirst  // the paper's algorithm (default)
	PickerRandom       = scenario.PickerRandom       // baseline the paper cites as inferior
	PickerSequential   = scenario.PickerSequential   // in-order worst case
	PickerGlobalRarest = scenario.PickerGlobalRarest // oracle with global knowledge
)

// Seed-state choke algorithms accepted by Scenario.SeedChoke.
const (
	SeedChokeNew = scenario.SeedChokeNew // mainline >= 4.0.0, the paper's subject (default)
	SeedChokeOld = scenario.SeedChokeOld // pre-4.0.0 upload-rate algorithm (baseline)
)

// Leecher-state choke algorithms accepted by Scenario.LeecherChoke.
const (
	LeecherChokeStandard  = scenario.LeecherChokeStandard  // 3 RU / 10 s + 1 OU / 30 s (default)
	LeecherChokeTitForTat = scenario.LeecherChokeTitForTat // bit-level TFT baseline
)

// Scenario describes one experiment. It is scenario.Spec, which declares
// and documents every knob once; its Config method is the sim config
// builder Run uses.
type Scenario = scenario.Spec

// Torrent is one row of the paper's Table I.
type Torrent struct {
	ID       int
	Seeds    int
	Leechers int
	Ratio    float64 // seeds/leechers
	MaxPS    int
	SizeMB   int
	State    string // "steady", "transient" or "no-seed"
}

// TableI returns the paper's torrent catalog.
func TableI() []Torrent {
	out := make([]Torrent, 0, len(torrents.TableI))
	for _, s := range torrents.TableI {
		out = append(out, Torrent{
			ID:       s.ID,
			Seeds:    s.Seeds,
			Leechers: s.Leechers,
			Ratio:    s.Ratio(),
			MaxPS:    s.MaxPS,
			SizeMB:   s.SizeMB,
			State:    s.State.String(),
		})
	}
	return out
}

// Run executes the scenario and derives its report. Live scenarios run on
// the real-TCP loopback backend; everything else is a discrete-event
// simulation. Both produce the same *Report shape through the same
// derivation, so downstream aggregation cannot tell them apart except by
// the Scenario.Live flag.
func Run(sc Scenario) (*Report, error) {
	if sc.Live {
		return runLive(sc)
	}
	cfg, spec, err := sc.Config()
	if err != nil {
		return nil, err
	}
	sw := swarm.New(cfg)
	res := sw.Run()
	return buildReport(sc, spec, cfg, res), nil
}
