package obs

// Engine phase timing. The simulator's hot loop splits into distinct
// phases — lane compute, lane apply, the deferred retime flush, the
// batched HAVE flush — and knowing
// where wall-clock time goes is what turns "201 s of silence" into a
// tunable system. PhaseTimes is a bundle of atomic nanosecond
// accumulators the engine adds into when (and only when) a bundle is
// attached; the disabled path is a single nil check per phase.
//
// Timing is observe-only: wall-clock readings accumulate here and never
// flow back into simulation state, so attaching a PhaseTimes cannot
// perturb event order or RNG streams (the determinism contract).

import "sync/atomic"

// PhaseTimes accumulates per-phase wall-clock nanoseconds. Fields are
// atomics so exposition can read them race-free mid-run.
type PhaseTimes struct {
	// LaneCompute: the key-ordered choke computes of a lane batch,
	// including batch collection.
	LaneCompute atomic.Int64
	// LaneApply: the key-ordered apply loop of a lane batch.
	LaneApply atomic.Int64
	// RetimeFlush: the post-event dirty-flow retime flush (sim.Net).
	RetimeFlush atomic.Int64
	// HaveFlush: draining the batched-HAVE queue (internal/swarm).
	HaveFlush atomic.Int64
}

// PhaseSnapshot is a plain-value copy of the accumulated nanoseconds.
type PhaseSnapshot struct {
	LaneComputeNs uint64
	LaneApplyNs   uint64
	RetimeFlushNs uint64
	HaveFlushNs   uint64
}

// Snapshot reads all accumulators. A nil receiver snapshots to zeros, so
// stats paths can call it unconditionally.
func (p *PhaseTimes) Snapshot() PhaseSnapshot {
	if p == nil {
		return PhaseSnapshot{}
	}
	return PhaseSnapshot{
		LaneComputeNs: uint64(p.LaneCompute.Load()),
		LaneApplyNs:   uint64(p.LaneApply.Load()),
		RetimeFlushNs: uint64(p.RetimeFlush.Load()),
		HaveFlushNs:   uint64(p.HaveFlush.Load()),
	}
}
