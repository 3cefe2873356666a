package rarestfirst

import "fmt"

// The two full-size scenarios bench/ cuts its simulator workloads from.

// LargeSwarmScenario is the steady-state stress scenario: torrent 7 well
// above the default experiment caps (300 peers, 256 pieces, 1800 s), so
// steady-state event throughput — not setup — dominates.
func LargeSwarmScenario() Scenario {
	return Scenario{
		Label:     "large-swarm",
		TorrentID: 7,
		Scale: Scale{
			MaxPeers:     300,
			MaxContentMB: 24,
			MaxPieces:    256,
			Duration:     1800,
			Warmup:       400,
			Seed:         42,
		},
	}
}

// FlashCrowd20kScenario is the registry's "flash-crowd-20k" suite as one
// Scenario: one slow initial seed against a flash-crowd arrival of >20k
// leechers, with every choke round on the global 10 s grid.
func FlashCrowd20kScenario() Scenario {
	s, err := NewSuite("flash-crowd-20k", SuiteOptions{})
	if err != nil || len(s.Scenarios) != 1 {
		panic(fmt.Sprintf("rarestfirst: flash-crowd-20k suite: %v (%d scenarios)", err, len(s.Scenarios)))
	}
	sc := s.Scenarios[0]
	sc.Label = "flash-crowd-20k"
	return sc
}
