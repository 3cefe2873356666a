package obs

// Engine phase timing. PhaseTimes is a bundle of atomic nanosecond
// accumulators the simulator adds into when (and only when) a bundle is
// attached; the disabled path is a single nil check per phase. One phase
// is timed today: the deferred retime flush (sim.Net.Flush) that follows
// every event.
//
// Timing is observe-only: wall-clock readings accumulate here and never
// flow back into simulation state, so attaching a PhaseTimes cannot
// perturb event order or RNG streams (the determinism contract).

import "sync/atomic"

// PhaseTimes accumulates per-phase wall-clock nanoseconds. Fields are
// atomics so exposition can read them race-free mid-run.
type PhaseTimes struct {
	// RetimeFlush: the post-event dirty-flow retime flush (sim.Net).
	RetimeFlush atomic.Int64
}

// PhaseSnapshot is a plain-value copy of the accumulated nanoseconds.
type PhaseSnapshot struct {
	RetimeFlushNs uint64
}

// Snapshot reads all accumulators. A nil receiver snapshots to zeros, so
// stats paths can call it unconditionally.
func (p *PhaseTimes) Snapshot() PhaseSnapshot {
	if p == nil {
		return PhaseSnapshot{}
	}
	return PhaseSnapshot{RetimeFlushNs: uint64(p.RetimeFlush.Load())}
}
