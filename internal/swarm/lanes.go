package swarm

// Lane choke rounds: the intra-swarm sharding path behind
// Config.ChokeLanes. Every peer's 10-second choke round is aligned to the
// global core.ChokeInterval grid, so one simulated instant carries the
// whole population's rounds. The engine executes them as one lane batch
// (sim.Engine.AtLane) on the engine's goroutine: each peer's decision —
// settle-free rate snapshot, choke-algorithm ordering, unchoke set — runs
// as a compute, in peer-id order, and the state transitions apply in
// peer-id order once every compute of the batch has run.
//
// Determinism: computes read shared state (connection flags, byte
// counters, estimator snapshots via rate.RateWith, bitfield counts, flow
// remainders) without writing it, and mutate only per-peer state (the
// peer's choker, its unchoke set and private choke RNG) plus the swarm's
// snapshot buffer (Swarm.chokeSnaps, dead once the compute returns).
// Every compute of a batch runs before its first apply, so each sees the
// pre-batch state; TestChokeLanesParallelMatchesSerial pins the resulting
// report digests.

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
// the batch), which would change which state the second half's computes
// read.
func (s *Swarm) sampleLaneCompute() func() {
	if s.local == nil || s.local.departed {
		return nil
	}
	s.sampleScratch = s.gatherSample()
	return s.sampleApplyFn
}

// applySample commits the compute-phase snapshot and re-arms the sampler.
// The invariant check runs here, in the apply phase, never from the
// compute half, where other computes' per-peer state is mid-batch.
func (s *Swarm) applySample() {
	s.col.Sample(s.sampleScratch)
	if s.cfg.Invariants {
		s.checkInvariants(false)
	}
	s.eng.AtLane(s.eng.Now()+s.cfg.SampleEvery, laneKeySample, s.sampleLaneFn)
}

// reannounceCompute is trivially read-only: tracker sampling draws from
// the shared engine RNG, so the whole re-announce belongs in the apply
// phase.
func (p *Peer) reannounceCompute() func() { return p.reannounceApplyFn }

// applyReannounce clears the queue mark and runs the deferred tracker
// re-contact (rate-limited and departure-guarded by maybeReannounce).
func (p *Peer) applyReannounce() {
	p.reannouncePending = false
	p.s.maybeReannounce(p)
}

// laneSource is a splitmix64 rand.Source64. Each peer owns one for its
// choke decisions in lane mode: 8 bytes of state instead of the ~5 kB a
// default rand.NewSource carries, which matters when 10k peers each hold
// one. A compute may advance it because no other lane reads it, so the
// draws do not depend on where in the batch the compute runs.
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
// appropriate choke algorithm against the peer's private RNG, parks a
// copy of the unchoke set in the peer and hands the engine the apply
// half. Only interested conns get a row (the chokers read no other; see
// core.Choker), and this half's reads are pure, so the others are not
// read at all. The snapshot goes in the swarm's one buffer, which the
// next compute refills: Round neither keeps nor reorders it.
func (p *Peer) chokeLaneCompute() func() {
	if p.departed {
		return nil
	}
	if len(p.connList) == 0 {
		p.laneUnchoke = p.laneUnchoke[:0]
		return p.laneApplyFn
	}
	now := p.s.eng.Now()
	peers := p.s.chokeSnaps[:0]
	for _, c := range p.connList {
		if !c.peerInterested {
			continue
		}
		din := c.pendingIn(now)
		dout := c.pendingOut(now)
		peers = append(peers, core.ChokePeer{
			ID:             c.remoteID,
			Interested:     true,
			Unchoked:       c.amUnchoking,
			DownloadRate:   c.inEst.RateWith(now, din),
			UploadRate:     c.outEst.RateWith(now, dout),
			LastUnchoked:   c.lastUnchokedAt,
			UploadedTo:     c.outEst.Total() + dout,
			DownloadedFrom: c.inEst.Total() + din,
			RemotePieces:   c.remote.shownBits().Count(),
		})
	}
	p.s.chokeSnaps = peers
	choker := p.chokerL
	if p.seed || p.advLiar {
		// Liars pose as seeds, so they run the seed unchoke policy too.
		choker = p.chokerS
	}
	// The returned slice is the swarm's choke scratch, which the batch's
	// next compute reuses, so the apply half reads a copy.
	p.laneUnchoke = append(p.laneUnchoke[:0], choker.Round(now, peers, p.chokeRNG)...)
	return p.laneApplyFn
}

// applyLaneRound is the apply half: it commits the progress the compute
// phase read (the same settles the serial round runs), applies the choke
// transitions — which may cancel remote flows and trigger re-requests
// against the engine RNG — and re-arms the peer on the next grid instant.
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
		p.applyChoke(c, containsPeerID(p.laneUnchoke, c.remoteID))
	}
	p.chokeTimer = p.s.eng.AtLane(nextChokeInstant(p.s.eng.Now()), int64(p.id), p.laneFn)
}
