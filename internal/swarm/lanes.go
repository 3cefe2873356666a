package swarm

// Lane choke rounds: the intra-swarm sharding path behind
// Config.ChokeLanes. Every peer's 10-second choke round is aligned to the
// global core.ChokeInterval grid, so one simulated instant carries the
// whole population's rounds. The engine executes them as one lane batch
// (sim.Engine.AtLane): each peer's decision — settle-free rate snapshot,
// choke-algorithm ordering, unchoke set — runs as a read-only compute that
// may be fanned across worker goroutines, and the state transitions apply
// serially in peer-id order afterwards.
//
// Determinism: computes read only pre-batch shared state (connection
// flags, byte counters, estimator snapshots via rate.RateWith, bitfield
// counts, flow remainders — all pure reads) and mutate only per-peer state
// (the peer's choker, its unchoke set and private choke RNG) plus the
// snapshot buffer of the worker running them (Swarm.chokeSnaps, dead once
// the compute returns), so their execution order is unobservable; applies
// run in a fixed order either way. A run is therefore bit-identical for
// every LaneWorkers value, which TestChokeLanesParallelMatchesSerial pins.

import (
	"math"

	"rarestfirst/internal/core"
)

// nextChokeInstant returns the first global choke-grid point strictly
// after now. Grid points are exact multiples of core.ChokeInterval (exact
// in float64 for any reachable simulation length), so repeated re-arming
// never drifts off the grid.
func nextChokeInstant(now float64) float64 {
	return (math.Floor(now/core.ChokeInterval) + 1) * core.ChokeInterval
}

// Lane key spaces. Choke rounds use the bare peer id (>= 0). The local
// peer's availability sample rides the same batch under laneKeySample, a
// negative key, so its read-only snapshot is taken against pre-batch
// state and commits before any choke apply. Tracker re-announces queued
// during a batch use reannounceLaneKey — peer id offset past every
// possible choke key — so when a re-announce lands in a batch with choke
// rounds (scheduled by an earlier plain event at the same instant) it
// applies after all of them, in peer-id order.
const (
	laneKeySample        = int64(-1)
	laneKeyReannounceOff = int64(1) << 40
)

func reannounceLaneKey(id core.PeerID) int64 { return laneKeyReannounceOff + int64(id) }

// sampleLaneCompute is the read-only half of a lane-mode availability
// sample (local-peer viewpoint stats + global transient/steady
// indicators, all pure reads); the apply half commits it to the collector
// and re-arms. Riding the sample on the lane batch instead of a plain
// timer keeps the 10-second sample tick from splitting the same-instant
// choke batch in two (a plain event interleaved between lane events ends
// the batch), which would halve the exposed parallelism at exactly the
// widest instants.
func (s *Swarm) sampleLaneCompute(int) func() {
	if s.local == nil || s.local.departed {
		return nil
	}
	s.sampleScratch = s.gatherSample()
	return s.sampleApplyFn
}

// applySample commits the compute-phase snapshot and re-arms the sampler.
// The invariant check runs here, in the serial apply phase, never from
// the parallel compute half.
func (s *Swarm) applySample() {
	s.col.Sample(s.sampleScratch)
	if s.cfg.Invariants {
		s.checkInvariants(false)
	}
	s.eng.AtLane(s.eng.Now()+s.cfg.SampleEvery, laneKeySample, s.sampleLaneFn)
}

// reannounceCompute is trivially read-only: tracker sampling draws from
// the shared engine RNG, so the whole re-announce belongs in the serial
// apply phase.
func (p *Peer) reannounceCompute(int) func() { return p.reannounceApplyFn }

// applyReannounce clears the queue mark and runs the deferred tracker
// re-contact (rate-limited and departure-guarded by maybeReannounce).
func (p *Peer) applyReannounce() {
	p.reannouncePending = false
	p.s.maybeReannounce(p)
}

// laneSource is a splitmix64 rand.Source64. Each peer owns one for its
// choke decisions in lane mode: 8 bytes of state instead of the ~5 kB a
// default rand.NewSource carries, which matters when 10k peers each hold
// one, and safe to advance from a compute goroutine because no other lane
// touches it.
type laneSource struct{ state uint64 }

func (s *laneSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *laneSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *laneSource) Seed(seed int64) { s.state = uint64(seed) }

// laneSeed decorrelates (swarm seed, peer id) pairs with a splitmix64
// finalizer, the same construction internal/scenario.MixSeed uses (not
// imported to avoid a package cycle).
func laneSeed(seed int64, id core.PeerID) uint64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(id)+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pendingIn returns the inbound in-flight progress on c that settleDown
// has not yet committed, as of now. Pure read; mirrors settleDown's
// truncation and non-negativity exactly.
func (c *conn) pendingIn(now float64) int64 {
	if c.inFlow == nil {
		return 0
	}
	progress := c.flowBytes - c.inFlow.Remaining(now)
	delta := int64(progress - c.flowSettled)
	if delta <= 0 {
		return 0
	}
	return delta
}

// pendingOut is pendingIn for the opposite direction: the uncommitted
// progress of the remote's download from the owner (whose bookkeeping
// lives on the remote's conn).
func (c *conn) pendingOut(now float64) int64 {
	if c.outFlow == nil {
		return 0
	}
	if rc := c.mirror; rc != nil {
		return rc.pendingIn(now)
	}
	return 0
}

// chokeLaneCompute is the read-only half of a lane choke round. It builds
// the ChokePeer snapshot with in-flight progress folded in (the legacy
// path settles first and then reads; here the settle is deferred to the
// apply phase, so the estimator reads go through rate.RateWith), runs the
// appropriate choke algorithm against the peer's private RNG, parks the
// unchoke set in per-peer scratch and hands the engine the apply half.
// The snapshot goes in the running worker's buffer, which the worker's
// next compute may refill: Round neither keeps nor reorders it.
func (p *Peer) chokeLaneCompute(worker int) func() {
	if p.departed {
		return nil
	}
	if len(p.connList) == 0 {
		p.laneUnchoke = p.laneUnchoke[:0]
		return p.laneApplyFn
	}
	now := p.s.eng.Now()
	peers := p.s.chokeSnaps[worker][:0]
	for _, c := range p.connList {
		din := c.pendingIn(now)
		dout := c.pendingOut(now)
		peers = append(peers, core.ChokePeer{
			ID:             c.remote.id,
			Interested:     c.peerInterested,
			Unchoked:       c.amUnchoking,
			DownloadRate:   c.inEst.RateWith(now, din),
			UploadRate:     c.outEst.RateWith(now, dout),
			LastUnchoked:   c.lastUnchokedAt,
			UploadedTo:     c.bytesOut + dout,
			DownloadedFrom: c.bytesIn + din,
			RemotePieces:   c.remote.shownBits().Count(),
		})
	}
	p.s.chokeSnaps[worker] = peers
	choker := p.chokerL
	if p.seed || p.advLiar {
		// Liars pose as seeds, so they run the seed unchoke policy too.
		choker = p.chokerS
	}
	// The returned slice is the choker's scratch; it stays valid through
	// the apply phase because only this peer's next Round reuses it.
	p.laneUnchoke = choker.Round(now, peers, p.chokeRNG)
	return p.laneApplyFn
}

// applyLaneRound is the serial half: it commits the progress the compute
// phase read (the same two settle loops the legacy round runs), applies
// the choke transitions — which may cancel remote flows and trigger
// re-requests against the engine RNG, all serial here — and re-arms the
// peer on the next grid instant.
func (p *Peer) applyLaneRound() {
	if p.departed {
		return
	}
	p.s.metrics.chokeRounds.Inc()
	for _, c := range p.connList {
		p.settleDown(c)
		if c.outFlow != nil {
			if rc := c.mirror; rc != nil {
				c.remote.settleDown(rc)
			}
		}
	}
	for _, c := range p.connList {
		p.applyChoke(c, containsPeerID(p.laneUnchoke, c.remote.id))
	}
	p.chokeTimer = p.s.eng.AtLane(nextChokeInstant(p.s.eng.Now()), int64(p.id), p.laneFn)
}
