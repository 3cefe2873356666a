package swarm

import (
	"sort"

	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/core"
	"rarestfirst/internal/metainfo"
	"rarestfirst/internal/obs"
	"rarestfirst/internal/sim"
	"rarestfirst/internal/trace"
)

// Swarm is one experiment: a torrent, its peers, its tracker, and the
// instrumented local peer.
type Swarm struct {
	cfg Config
	geo metainfo.Geometry
	eng *sim.Engine
	net *sim.Net
	// trk is the in-simulation tracker: the live peers, answering each
	// announce with a uniform sample drawn from the engine RNG.
	trk *core.Roster[core.PeerID, *Peer]
	col *trace.Collector

	peers  map[core.PeerID]*Peer
	nextID core.PeerID

	local       *Peer
	initialSeed *Peer

	// globalAvail tracks copies over all live peers (oracle picker +
	// steady/transient-state detection).
	globalAvail *core.Availability

	// availCache memoises availablePieces.
	availCache []int

	// chokeSnaps is the ChokePeer snapshot buffer every choke round
	// refills. A snapshot is dead once the choker's Round returns, so one
	// buffer serves the whole swarm. chokeScratch is the working storage
	// of every choker newChokers builds, for the same reason: rounds never
	// overlap, and each is applied before the next one runs.
	chokeSnaps   []core.ChokePeer
	chokeScratch core.ChokeScratch

	// seedServeCount[i] counts initial-seed serve STARTS of piece i; it
	// drives the smart-serve policy. seedServeDone[i] counts COMPLETED
	// deliveries and feeds the A4 duplicate metric (resumed transfers
	// after a choke are not double-counted).
	seedServeCount []int
	seedServeDone  []int

	// Download-time bookkeeping for ablations.
	finishedContrib, finishedFree   int
	totalTimeContrib, totalTimeFree float64
	arrivals                        int

	// Connection storage (see newConn): connSlab is the unused rest of
	// the current connBlock, connFree holds zeroed conns ready for reuse,
	// connRetired the sides disconnect tore down during the current
	// event, and connGen stamps each new connection.
	connSlab    []conn
	connFree    []*conn
	connRetired []*conn
	connGen     uint64

	// Peer slabs (see addPeerOpts and carvePeer): the unused rest of the
	// current block of peers, bitfield words, availability counts and
	// connList entries.
	peerSlab     []Peer
	wordSlab     []uint64
	countSlab    []int
	connListSlab []*conn

	// announceBuf is the tracker-sample buffer announce reuses; nil while
	// an announce holds it (see announce).
	announceBuf []*Peer

	// crashCorruptDone marks that the Crashes plan's DropAllFirst victim
	// has been consumed (at most one corrupted-resume peer per run).
	crashCorruptDone bool

	// Observability (metrics.go): cached obs handles, no-op without a
	// registry.
	metrics swarmMetrics
}

// Result summarises one experiment run.
type Result struct {
	// Collector holds all local-peer instrumentation (finalized).
	Collector *trace.Collector
	// LocalCompleted reports whether the instrumented peer finished its
	// download within the experiment.
	LocalCompleted bool
	// LocalDownloadTime is seconds from local join to seed state (-1 if
	// never completed).
	LocalDownloadTime float64
	// Arrivals is the total number of leechers that ever joined.
	Arrivals int
	// FinishedContrib/FinishedFree count completed downloads by
	// contributing leechers and free riders.
	FinishedContrib, FinishedFree int
	// MeanDownloadContrib/MeanDownloadFree are mean download durations in
	// seconds (0 when no peer of the class finished).
	MeanDownloadContrib, MeanDownloadFree float64
	// SeedServes / DupSeedServes count pieces served by the initial seed
	// and how many of those were duplicates (already served before).
	SeedServes, DupSeedServes int
	// EndTime is the simulated end of the experiment.
	EndTime float64
	// Events is the discrete-event scheduler's occupancy at the end of the
	// run (heap size vs live events, timer-pool reuse) — the benchmark
	// harness's view of the PR 2 hot-path rewrite.
	Events sim.EngineStats
	// Net is the fluid model's deferred-retiming and flow-pool counters
	// (dirty flushes, retime batches, peak shard width) — the PR 5 view.
	Net sim.NetStats
}

// New builds a swarm from cfg; call Run to execute it.
func New(cfg Config) *Swarm {
	cfg.validate()
	eng := sim.NewEngine(cfg.Seed)
	s := &Swarm{
		cfg:            cfg,
		geo:            cfg.Geometry(),
		eng:            eng,
		net:            sim.NewNet(eng),
		trk:            core.NewRoster[core.PeerID, *Peer](),
		peers:          map[core.PeerID]*Peer{},
		globalAvail:    core.NewAvailability(cfg.NumPieces),
		seedServeCount: make([]int, cfg.NumPieces),
		seedServeDone:  make([]int, cfg.NumPieces),
	}
	if reg := obs.Active(); reg != nil {
		s.metrics = newSwarmMetrics(reg)
		eng.SetMetrics(sim.EngineMetrics{
			Phases: &obs.PhaseTimes{},
			Events: reg.Counter("sim_events_total"),
		})
	}
	// Chain the deferred flush points: the reclaim of the event's retired
	// connections first, Net's dirty-node flush second. NewNet installed
	// n.Flush as the engine's post-event hook; this replaces it with the
	// chain.
	eng.SetPostEventHook(func() {
		s.reclaimConns()
		s.net.Flush()
	})
	return s
}

// newPicker returns p's configured piece selection strategy. The default,
// rarest first over p's own availability index, is p's inline value and
// costs no allocation; the stateless pickers cost none either, and the
// global-rarest one is allocated.
func (s *Swarm) newPicker(p *Peer) core.Picker {
	switch s.cfg.Picker {
	case PickRandom:
		return core.RandomPicker{}
	case PickSequential:
		return core.SequentialPicker{}
	case PickGlobalRarest:
		return &core.GlobalRarest{Global: s.globalAvail}
	default:
		p.rarest = core.RarestFirst{Avail: p.avail, DisableRandomFirst: s.cfg.DisableRandomFirst}
		return &p.rarest
	}
}

// newChokers returns p's configured leecher and seed chokers, all working
// in the swarm's one chokeScratch. The default ones are p's inline values;
// the tit-for-tat and old seed chokers are allocated. Free riders and
// flooders never reciprocate, so both of their chokers unchoke nobody.
func (s *Swarm) newChokers(p *Peer) (core.Choker, core.Choker) {
	if p.freeRider || p.advFlood {
		return core.NeverUnchoke{}, core.NeverUnchoke{}
	}
	scratch := &s.chokeScratch
	var l core.Choker
	switch s.cfg.LeecherChoker {
	case LeecherChokeTitForTat:
		l = &core.TitForTatChoker{DeficitLimit: s.cfg.TFTDeficitLimit, Scratch: scratch}
	default:
		p.leecherChoker = core.LeecherChoker{BoostNewcomers: s.cfg.BoostNewcomers, Scratch: scratch}
		l = &p.leecherChoker
	}
	var sd core.Choker
	switch s.cfg.SeedChoker {
	case SeedChokeOld:
		sd = &core.OldSeedChoker{Scratch: scratch}
	default:
		p.seedChoker = core.SeedChoker{BoostNewcomers: s.cfg.BoostNewcomers, Scratch: scratch}
		sd = &p.seedChoker
	}
	return l, sd
}

// peerBlock is how many peers, and how many peers' storage, carve takes
// from one slab block. A run leaves the rest of its last block unused,
// and a Table I catalog run has only about 20 peers, so blocks stay
// small.
const peerBlock = 16

// carvePeer backs p's inline bitfields and availability index with slab
// space and points have, inflight and avail at them, and carves its
// connList at MaxPeerSet capacity. Each piece is cut to its length
// (s[:n:n]), so an append can never write into the next peer's space.
func (s *Swarm) carvePeer(p *Peer) {
	n := s.cfg.NumPieces
	nw := bitfield.Words(n)
	words := carve(&s.wordSlab, 2*nw)
	p.haveBits = bitfield.Make(words[:nw:nw], n)
	p.inflightBits = bitfield.Make(words[nw:], n)
	p.availIdx = core.MakeAvailability(carve(&s.countSlab, n))
	p.have, p.inflight, p.avail = &p.haveBits, &p.inflightBits, &p.availIdx
	p.connList = carve(&s.connListSlab, s.cfg.MaxPeerSet)[:0]
}

// carve cuts the next n elements off *slab, with capacity n, first
// replacing *slab with a fresh block of peerBlock*n when fewer than n
// remain. Carved storage never moves and is never handed out twice.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, peerBlock*n)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// availablePieces lazily builds the set of pieces that exist in the torrent
// at start (AvailableFrac < 1 models torrent 1's dead-torrent scenario).
func (s *Swarm) availablePieces() []int {
	if s.availCache != nil {
		return s.availCache
	}
	n := s.cfg.NumPieces
	frac := s.cfg.AvailableFrac
	if frac <= 0 || frac >= 1 {
		frac = 1
	}
	idx := s.eng.RNG().Perm(n)
	k := int(float64(n) * frac)
	if k < 1 {
		k = 1
	}
	s.availCache = idx[:k]
	return s.availCache
}

// bootstrapBitfield seeds an initial leecher with a random fraction of the
// available pieces.
func (s *Swarm) bootstrapBitfield(p *Peer) {
	if s.cfg.LeecherBootstrapMax <= 0 {
		return
	}
	avail := s.availablePieces()
	frac := s.eng.RNG().Float64() * s.cfg.LeecherBootstrapMax
	for _, i := range avail {
		if s.eng.RNG().Float64() < frac {
			p.have.Set(i)
		}
	}
	p.downloaded = p.have.Count()
}

// addPeer creates a peer, registers it with the tracker and connects it.
func (s *Swarm) addPeer(isSeed, freeRider, isLocal bool, upBps, downBps float64) *Peer {
	return s.addPeerOpts(isSeed, freeRider, isLocal, false, upBps, downBps)
}

// addPeerOpts is addPeer with control over initial-content bootstrapping.
func (s *Swarm) addPeerOpts(isSeed, freeRider, isLocal, bootstrap bool, upBps, downBps float64) *Peer {
	id := s.nextID
	s.nextID++
	// Byzantine role draw: one engine-RNG draw per joining remote leecher,
	// and only when an adversary plan is configured (nil keeps the RNG
	// sequence — and with it the golden digests — untouched).
	advPoison, advLiar, advFlood := false, false, false
	if adv := s.cfg.Adversary; adv != nil && !isSeed && !isLocal {
		if s.eng.RNG().Float64() < adv.Fraction {
			advPoison = adv.PoisonRate > 0
			advLiar = adv.FakeHaves
			advFlood = adv.Flood
		}
	}
	// Peers are never removed from s.peers, so a block pins no memory that
	// would otherwise be freed.
	p := &carve(&s.peerSlab, 1)[0]
	*p = Peer{
		s:          s,
		id:         id,
		node:       s.net.AddNode(upBps, downBps),
		freeRider:  freeRider,
		isLocal:    isLocal,
		seed:       isSeed,
		joinedAt:   s.eng.Now(),
		finishedAt: -1,
		advPoison:  advPoison,
		advLiar:    advLiar,
		advFlood:   advFlood,
	}
	s.carvePeer(p)
	p.chokeEv = peerEvent{p, (*Peer).chokeRound}
	p.abortEv = peerEvent{p, (*Peer).abortCheck}
	p.departEv = peerEvent{p, (*Peer).depart}
	if advLiar {
		p.liarBits = bitfield.New(s.cfg.NumPieces)
		p.liarBits.SetAll()
	}
	p.picker = s.newPicker(p)
	p.chokerL, p.chokerS = s.newChokers(p)
	if isLocal {
		p.req = core.NewRequester(s.geo, p.picker)
		p.have = p.req.Have() // single source of truth for the local bitfield
	}
	if isSeed {
		if isLocal {
			for i := 0; i < s.cfg.NumPieces; i++ {
				p.req.AddHave(i)
			}
		} else {
			p.have.SetAll()
		}
		p.downloaded = s.cfg.NumPieces
		p.finishedAt = s.eng.Now()
	} else if bootstrap && !isLocal {
		s.bootstrapBitfield(p)
	}
	if !isSeed {
		s.arrivals++
		s.metrics.arrivals.Inc()
	}
	s.peers[id] = p
	s.trk.Put(p.id, p)
	s.globalAvail.AddPeer(p.have)
	s.announce(p)
	if advFlood {
		var flood func()
		flood = func() {
			if p.departed {
				return
			}
			s.fault("flood_announce", 1, p, nil)
			s.announce(p)
			s.eng.After(floodAnnounceEvery, flood)
		}
		s.eng.After(floodAnnounceEvery, flood)
	}
	p.armFirstChokeRound()
	// Pre-completion abort process.
	if !isSeed && s.cfg.AbortRate > 0 && !isLocal {
		s.scheduleAbortCheck(p)
	}
	// Crash plan (Config.Crashes): the kill/restart draw, nil-gated like
	// the Byzantine draw above so golden RNG sequences are untouched.
	s.maybeScheduleCrash(p)
	return p
}

// scheduleAbortCheck arms an exponential departure hazard for a leecher.
func (s *Swarm) scheduleAbortCheck(p *Peer) {
	delay := s.eng.RNG().ExpFloat64() / s.cfg.AbortRate
	s.eng.AfterEvent(delay, &p.abortEv)
}

// abortCheck is the hazard's firing: the leecher departs unless it has
// left or finished meanwhile.
func (p *Peer) abortCheck() {
	if !p.departed && !p.seed {
		p.depart()
	}
}

// announce asks the tracker for peers and initiates connections, honouring
// the 40-initiated / 80-total caps.
func (s *Swarm) announce(p *Peer) {
	if p.departed {
		return
	}
	if ch := s.cfg.Chaos; ch != nil && ch.blackedOut(s.eng.Now()) {
		// Tracker blackout: this announce fails and the peer retries after
		// a fixed backoff. Registration happened at join and existing
		// connections keep transferring — losing the tracker only degrades
		// peer discovery, mirroring the live client's announce backoff.
		s.fault("announce_fail", 1, p, nil)
		p.nextAnnounceOK = s.eng.Now() + AnnounceRetry
		s.eng.After(AnnounceRetry, func() { s.maybeReannounce(p) })
		return
	}
	s.metrics.announces.Inc()
	// Connecting can re-enter announce (disconnect → maybeReannounce →
	// announce), so the sample buffer is taken for the walk and given back
	// after it; a nested announce samples into a fresh one.
	cand := s.trk.AppendSample(s.announceBuf[:0], s.eng.RNG(), trackerResponse, p.id)
	s.announceBuf = nil
	maxInitiated := s.cfg.maxInitiated()
	for _, q := range cand {
		if p.initiated >= maxInitiated || len(p.connList) >= s.cfg.MaxPeerSet {
			break
		}
		s.connect(p, q)
	}
	s.announceBuf = cand
	p.nextAnnounceOK = s.eng.Now() + 60
}

// maybeReannounce re-contacts the tracker when the peer set has fallen
// below the minimum (rate-limited).
func (s *Swarm) maybeReannounce(p *Peer) {
	if p.departed || len(p.connList) >= s.cfg.minPeerSet() {
		return
	}
	if s.eng.Now() < p.nextAnnounceOK {
		return
	}
	s.announce(p)
}

// connect establishes the bidirectional connection a->b (a initiates),
// routing the attempt through the chaos plan when one is configured.
func (s *Swarm) connect(a, b *Peer) {
	ch := s.cfg.Chaos
	if ch == nil {
		s.connectNow(a, b)
		return
	}
	// Screen with connectNow's own rejections first so chaos RNG draws
	// happen only for attempts that could otherwise succeed.
	if a == b || a.departed || b.departed || a.connectedTo(b) ||
		(a.looksSeed() && b.looksSeed()) || a.bannedPeer(b) || b.bannedPeer(a) {
		return
	}
	if ch.DialFailRate > 0 && s.eng.RNG().Float64() < ch.DialFailRate {
		s.fault("dial_fail", 1, a, b)
		return
	}
	if ch.ConnSetupDelay > 0 {
		// Propagation delay: establishment lands later; caps and departures
		// are re-checked at fire time.
		s.eng.After(ch.ConnSetupDelay, func() { s.connectNow(a, b) })
		return
	}
	s.connectNow(a, b)
}

// fault tallies n of one fault kind (1 for an event; bytes or pieces for
// the count-valued kinds) between peers a and b, either of which may be
// nil. The swarm_-prefixed counter aggregates every occurrence
// swarm-wide; faults touching the instrumented local peer additionally
// land under the bare name, which is the counter comparable with live
// runs (whose collector only sees the instrumented client).
func (s *Swarm) fault(name string, n int, a, b *Peer) {
	s.metrics.fault(name, n)
	s.col.AddFault("swarm_"+name, n)
	if (a != nil && a.isLocal) || (b != nil && b.isLocal) {
		s.col.AddFault(name, n)
	}
}

// connectNow establishes the bidirectional connection a->b (a initiates).
func (s *Swarm) connectNow(a, b *Peer) {
	if a == b || a.departed || b.departed || a.connectedTo(b) {
		return
	}
	// Seeds have nothing to exchange with seeds; real clients drop such
	// connections right after the bitfield exchange. Liars pose as seeds,
	// so the same screen applies to what the endpoints SHOW each other.
	if a.looksSeed() && b.looksSeed() {
		return
	}
	// Banned peers are refused outright (poison/fake-HAVE detection).
	if a.bannedPeer(b) || b.bannedPeer(a) {
		return
	}
	if len(a.connList) >= s.cfg.MaxPeerSet || len(b.connList) >= s.cfg.MaxPeerSet {
		return
	}
	now := s.eng.Now()
	// Each side is fully initialised by a literal, so nothing from a
	// recycled conn's previous connection survives.
	s.connGen++
	gen := s.connGen
	ca, cb := s.newConn(), s.newConn()
	*ca = conn{owner: a, mirror: cb, gen: gen, initiatedByOwner: true, stallPiece: -1, remoteID: b.id}
	*cb = conn{owner: b, mirror: ca, gen: gen, stallPiece: -1, remoteID: a.id}
	a.connList = append(a.connList, ca)
	b.connList = append(b.connList, cb)
	a.initiated++
	s.metrics.conns.Add(1)
	// Bitfield exchange (instantaneous). Each side sees what the other
	// ADVERTISES — the full liarBits for bitfield liars.
	a.avail.AddPeer(b.shownBits())
	b.avail.AddPeer(a.shownBits())
	// Seed status is reported unconditionally from the bitfield exchange:
	// RemoteSeedStatus no-ops when unchanged, so this is free for fresh
	// peers, and it un-latches remoteIsSeed for an ex-seed that crashed
	// and rejoined as a leecher with retained pieces (otherwise its
	// post-rejoin leecher residency would be misclassified as seed time).
	if a.isLocal {
		s.col.PeerJoined(int(b.id), now)
		s.col.RemoteSeedStatus(int(b.id), now, b.looksSeed())
	}
	if b.isLocal {
		s.col.PeerJoined(int(a.id), now)
		s.col.RemoteSeedStatus(int(a.id), now, a.looksSeed())
	}
	a.refreshInterest(ca)
	b.refreshInterest(cb)
	if ch := s.cfg.Chaos; ch != nil && ch.ConnResetRate > 0 {
		if s.eng.RNG().Float64() < ch.ConnResetRate {
			// Scheduled abortive close: the connection dies after an
			// exponential delay unless it was already torn down. A
			// reconnect of the same pair may land on ca's memory, so the
			// check takes the generation as well as the identity.
			delay := s.eng.RNG().ExpFloat64() * ch.ConnResetMeanDelay
			s.eng.After(delay, func() {
				if a.connTo(b) == ca && ca.gen == gen {
					s.fault("conn_reset", 1, a, b)
					s.disconnect(a, b)
				}
			})
		}
	}
}

// disconnect tears down the connection between a and b, requeueing partial
// downloads on both sides.
func (s *Swarm) disconnect(a, b *Peer) {
	ca := a.connTo(b)
	if ca == nil {
		return
	}
	cb := ca.mirror
	now := s.eng.Now()
	a.cancelDownload(ca, true)
	b.cancelDownload(cb, true)
	a.avail.RemovePeer(b.shownBits())
	b.avail.RemovePeer(a.shownBits())
	if ca.initiatedByOwner {
		a.initiated--
	}
	if cb.initiatedByOwner {
		b.initiated--
	}
	removeConn(&a.connList, ca)
	removeConn(&b.connList, cb)
	s.metrics.conns.Add(-1)
	// Mark both sides closed so a stale handle (e.g. in a teardown
	// snapshot) sees the connection as gone. Both sides, mirror included,
	// stay readable as they are until the event ends; reclaimConns
	// recycles them then.
	ca.closed, cb.closed = true, true
	s.connRetired = append(s.connRetired, ca, cb)
	if a.isLocal {
		s.col.PeerLeft(int(b.id), now)
	}
	if b.isLocal {
		s.col.PeerLeft(int(a.id), now)
	}
	s.maybeReannounce(a)
	s.maybeReannounce(b)
	// A cancelled in-flight piece is requestable again from other peers.
	a.retryRequests()
	b.retryRequests()
}

// connBlock is how many conns newConn carves from one allocation: 512
// 144-byte conns fill nine 8 KiB pages exactly, so a block wastes no
// size-class rounding (TestConnRecordSize). 256 would round 36 864 bytes
// up to 40 960, and 128 (the 18 432-byte size class) costs sim-flashcrowd
// a fifth more allocations.
const connBlock = 512

// newConn returns a conn for connectNow to initialise: a recycled one
// when the free list has any, otherwise the next one of the current
// connBlock, allocating a new block when that one is used up. A conn
// never moves, so a *conn stays valid for the swarm's lifetime.
//
// The recycling contract: disconnect marks both sides closed and retires
// them, and only the post-event hook (reclaimConns) frees them. Within an
// event a stale handle therefore reads exactly what disconnect left, its
// mirror included, so the remote and the remote's interest and unchoke
// read as they were (TestStaleConnReadsMirrorUntilReclaimed). Callers
// keep using a conn after a possible teardown (maybeRequest after
// completePiece → becomeSeed → disconnect), and in serial mode
// disconnect → maybeReannounce → announce → connectNow runs in the same
// event, where an immediate reuse would hand the closed conn to the new
// connection. Across events only two timers hold a conn (the chaos reset
// and the fake-HAVE timeout); they check conn.gen, because the same pair
// of peers may reconnect onto the same memory.
func (s *Swarm) newConn() *conn {
	if n := len(s.connFree); n > 0 {
		c := s.connFree[n-1]
		s.connFree = s.connFree[:n-1]
		return c
	}
	if len(s.connSlab) == 0 {
		s.connSlab = new([connBlock]conn)[:]
	}
	c := &s.connSlab[0]
	s.connSlab = s.connSlab[1:]
	return c
}

// reclaimConns zeroes the conns retired during the event, dropping their
// peer and flow references, and moves them to the free list.
func (s *Swarm) reclaimConns() {
	for _, c := range s.connRetired {
		*c = conn{}
		s.connFree = append(s.connFree, c)
	}
	s.connRetired = s.connRetired[:0]
}

func removeConn(list *[]*conn, c *conn) {
	for i, x := range *list {
		if x == c {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return
		}
	}
}

// noteSeedServeStart marks an initial-seed piece serve start (smart-serve
// policy input only).
func (s *Swarm) noteSeedServeStart(piece int) {
	s.seedServeCount[piece]++
}

// recordSeedServeDone counts a COMPLETED initial-seed piece delivery for
// the A4 duplicate metric.
func (s *Swarm) recordSeedServeDone(piece int) {
	dup := s.seedServeDone[piece] > 0
	s.seedServeDone[piece]++
	s.col.SeedServed(dup)
}

// seedServeOverride returns the least-served piece (by the initial seed)
// that leecher p still needs and is not already fetching, or -1. Ties are
// broken uniformly at random so simultaneous downloaders spread across the
// unserved pieces instead of converging on one.
func (s *Swarm) seedServeOverride(p *Peer) int {
	best, bestCount, ties := -1, 0, 0
	rng := s.eng.RNG()
	for i, c := range s.seedServeCount {
		if p.hasPiece(i) || p.inflight.Has(i) {
			continue
		}
		switch {
		case best == -1 || c < bestCount:
			best, bestCount, ties = i, c, 1
		case c == bestCount:
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// sampleCapacityPair draws a remote peer's up/down capacities.
func (s *Swarm) sampleCapacityPair() (float64, float64) {
	cls := sampleCapacity(s.eng.RNG())
	return cls.UpBps, cls.DownBps
}

// Run executes the experiment and returns its result. It is not reusable.
func (s *Swarm) Run() *Result {
	cfg := &s.cfg
	end := cfg.LocalJoinTime + cfg.Duration
	s.col = trace.NewCollector(cfg.LocalJoinTime)

	// Initial population: seeds first, then leechers, staggered over the
	// first 30 seconds so the tracker fills gradually.
	for i := 0; i < cfg.InitialSeeds; i++ {
		up := cfg.InitialSeedUp
		if i > 0 {
			up, _ = s.sampleCapacityPair()
		}
		at := float64(i) * 0.01
		upCap := up
		s.eng.At(at, func() {
			p := s.addPeer(true, false, false, upCap, 0)
			if s.initialSeed == nil {
				s.initialSeed = p
				if cfg.InitialSeedLeaveAt > 0 {
					s.eng.AtEvent(cfg.InitialSeedLeaveAt, &p.departEv)
				}
			}
		})
	}
	for i := 0; i < cfg.InitialLeechers; i++ {
		at := 0.1 + float64(s.eng.RNG().Float64()*30) // float64: no fused multiply-add
		free := s.eng.RNG().Float64() < cfg.FreeRiderFraction
		s.eng.At(at, func() {
			up, down := s.sampleCapacityPair()
			s.addPeerOpts(false, free, false, true, up, down)
		})
	}
	// Poisson arrivals.
	if cfg.ArrivalRate > 0 {
		var arrive func()
		arrive = func() {
			if s.eng.Now() < end {
				up, down := s.sampleCapacityPair()
				free := s.eng.RNG().Float64() < cfg.FreeRiderFraction
				s.addPeer(false, free, false, up, down)
				s.eng.After(s.eng.RNG().ExpFloat64()/cfg.ArrivalRate, arrive)
			}
		}
		s.eng.After(s.eng.RNG().ExpFloat64()/cfg.ArrivalRate, arrive)
	}
	// The instrumented local peer.
	s.eng.At(cfg.LocalJoinTime, func() {
		s.local = s.addPeer(false, cfg.LocalFreeRider, true, localUpBps, localDownBps)
		s.scheduleSample()
	})

	s.eng.Run(end)
	if cfg.Invariants {
		// End-of-run sweep extends the availability audit to every peer.
		s.checkInvariants(true)
	}
	s.col.Finalize(end)

	// Harvest download-time stats. Iterate in peer-ID order: summing the
	// float durations in map order would make the means differ in the
	// last ULP from run to run, breaking bit-for-bit reproducibility.
	ids := make([]core.PeerID, 0, len(s.peers))
	for id := range s.peers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := s.peers[id]
		if p.isLocal || p.finishedAt < 0 || p.seedAtStart() {
			continue
		}
		d := p.finishedAt - p.joinedAt
		if p.freeRider {
			s.finishedFree++
			s.totalTimeFree += d
		} else {
			s.finishedContrib++
			s.totalTimeContrib += d
		}
	}
	res := &Result{
		Collector:       s.col,
		Events:          s.eng.Stats(),
		Net:             s.net.Stats(),
		Arrivals:        s.arrivals,
		FinishedContrib: s.finishedContrib,
		FinishedFree:    s.finishedFree,
		SeedServes:      s.col.SeedServes,
		DupSeedServes:   s.col.DupSeedServes,
		EndTime:         end,
	}
	if s.finishedContrib > 0 {
		res.MeanDownloadContrib = s.totalTimeContrib / float64(s.finishedContrib)
	}
	if s.finishedFree > 0 {
		res.MeanDownloadFree = s.totalTimeFree / float64(s.finishedFree)
	}
	if s.local != nil && s.local.finishedAt >= 0 {
		res.LocalCompleted = true
		res.LocalDownloadTime = s.local.finishedAt - s.local.joinedAt
	} else {
		res.LocalDownloadTime = -1
	}
	return res
}

// seedAtStart reports whether the peer joined the torrent as a seed.
func (p *Peer) seedAtStart() bool { return p.finishedAt == p.joinedAt }

// RareCount returns the number of "rare pieces" in the paper's sense:
// pieces whose only live copy is on the initial seed. A torrent is in
// transient state exactly while RareCount > 0 (§IV-A.2).
func (s *Swarm) RareCount() int {
	if s.initialSeed == nil || s.initialSeed.departed {
		return 0
	}
	n := 0
	for i := 0; i < s.cfg.NumPieces; i++ {
		if s.globalAvail.Count(i) == 1 && s.initialSeed.hasPiece(i) {
			n++
		}
	}
	return n
}

// gatherSample reads one availability snapshot from the local peer's
// viewpoint plus the global transient/steady indicators.
func (s *Swarm) gatherSample() trace.AvailSample {
	min, mean, max := s.local.avail.Stats()
	return trace.AvailSample{
		T:          s.eng.Now(),
		Min:        min,
		Mean:       mean,
		Max:        max,
		RarestSize: s.local.avail.RarestSetSize(),
		PeerSet:    len(s.local.connList),
		GlobalMin:  s.globalAvail.MinCount(),
		GlobalRare: s.RareCount(),
	}
}

// scheduleSample records periodic availability snapshots from the local
// peer's viewpoint (Figs 2–6) plus global transient/steady indicators.
func (s *Swarm) scheduleSample() {
	var tick func()
	tick = func() {
		if s.local == nil || s.local.departed {
			return
		}
		s.col.Sample(s.gatherSample())
		if s.cfg.Invariants {
			s.checkInvariants(false)
		}
		s.eng.After(sampleEvery, tick)
	}
	tick()
}
