package swarm

// Runtime observability wiring. When a process-wide obs registry is
// active at swarm construction, the swarm caches nil-safe handles once
// and bumps them from the hot paths; without one every handle is nil and
// each hook degrades to a single nil check (the obs disabled-path
// contract). Everything here is observe-only — no engine RNG draws, no
// event scheduling — so golden trajectories are identical with metrics
// on or off.

import "rarestfirst/internal/obs"

// swarmMetrics is the swarm layer's cached handle set.
type swarmMetrics struct {
	reg         *obs.Registry
	announces   *obs.Counter // successful tracker contacts (sim tracker)
	chokeRounds *obs.Counter // choke rounds
	pieces      *obs.Counter // piece completions across the whole swarm
	arrivals    *obs.Counter // leecher joins
	conns       *obs.Gauge   // currently established connections (pairs)
}

func newSwarmMetrics(reg *obs.Registry) swarmMetrics {
	// A nil registry yields nil handles, which are no-ops by contract.
	return swarmMetrics{
		reg:         reg,
		announces:   reg.Counter("swarm_announces_total"),
		chokeRounds: reg.Counter("swarm_choke_rounds_total"),
		pieces:      reg.Counter("swarm_piece_completions_total"),
		arrivals:    reg.Counter("swarm_arrivals_total"),
		conns:       reg.Gauge("swarm_active_conns"),
	}
}

// fault tallies one injected fault by kind. Fault paths are rare (and
// already do collector work), so the labeled-series lookup's mutex is
// acceptable here where it would not be on the per-event paths.
func (m *swarmMetrics) fault(kind string) {
	if m.reg == nil {
		return
	}
	m.reg.Counter(obs.SeriesName("swarm_faults_total", "kind", kind)).Inc()
}

// faultN is fault with a count, for byte-valued kinds (wasted_bytes).
func (m *swarmMetrics) faultN(kind string, n int) {
	if m.reg == nil {
		return
	}
	m.reg.Counter(obs.SeriesName("swarm_faults_total", "kind", kind)).Add(uint64(n))
}
