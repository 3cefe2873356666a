package swarm

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"rarestfirst/internal/trace"
)

// newTestSwarm builds a swarm without running it, with the collector wired
// so addPeer/connect paths work, and returns it.
func newTestSwarm(t *testing.T, mut func(*Config)) *Swarm {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumPieces = 16
	cfg.PieceSize = 64 << 10
	cfg.InitialLeechers = 0
	cfg.ArrivalRate = 0
	if mut != nil {
		mut(&cfg)
	}
	s := New(cfg)
	s.col = trace.NewCollector(0)
	return s
}

func TestConnectMirrorsState(t *testing.T) {
	s := newTestSwarm(t, nil)
	seed := s.addPeer(true, false, false, 1e5, 0)
	leech := s.addPeer(false, false, false, 1e5, 0)
	// addPeer announces, so they are already connected.
	ca := leech.connTo(seed)
	cb := seed.connTo(leech)
	if ca == nil || cb == nil {
		t.Fatal("announce did not connect the pair")
	}
	// The leecher must be interested in the seed, and each side reaches
	// the other through its mirror.
	if ca.mirror != cb || cb.mirror != ca || !ca.amInterested {
		t.Fatal("interest not set or sides not mirrored")
	}
	// The seed must not be interested in the empty leecher.
	if cb.amInterested {
		t.Fatal("seed interested in empty leecher")
	}
	// Availability folded both ways.
	if leech.avail.Count(0) != 1 || seed.avail.Count(0) != 0 {
		t.Fatalf("availability wrong: %d/%d", leech.avail.Count(0), seed.avail.Count(0))
	}
}

func TestApplyChokeStampsTransitionsOnly(t *testing.T) {
	s := newTestSwarm(t, nil)
	// Slow seed so the leecher cannot complete (and disconnect) during the
	// clock advances below.
	seed := s.addPeer(true, false, false, 4<<10, 0)
	leech := s.addPeer(false, false, false, 4<<10, 0)
	c := seed.connTo(leech)
	s.eng.Run(5) // advance the clock a little
	seed.applyChoke(c, true)
	stamp := c.lastUnchokedAt
	if !c.amUnchoking || !leech.connTo(seed).mirror.amUnchoking {
		t.Fatal("unchoke not applied/mirrored")
	}
	s.eng.Run(20)
	seed.applyChoke(c, true) // no transition: stamp unchanged
	if c.lastUnchokedAt != stamp {
		t.Fatal("re-unchoke refreshed the stamp")
	}
	seed.applyChoke(c, false)
	if c.amUnchoking || leech.connTo(seed).mirror.amUnchoking {
		t.Fatal("choke not applied/mirrored")
	}
	s.eng.Run(40)
	seed.applyChoke(c, true)
	if c.lastUnchokedAt <= stamp {
		t.Fatal("new transition did not refresh the stamp")
	}
}

func TestUnchokeTriggersTransferAndConservesBytes(t *testing.T) {
	s := newTestSwarm(t, nil)
	seed := s.addPeer(true, false, false, 64<<10, 0) // 64 kB/s
	leech := s.addPeer(false, false, false, 64<<10, 0)
	c := seed.connTo(leech)
	seed.applyChoke(c, true)
	lc := leech.connTo(seed)
	if lc.inFlow == nil {
		t.Fatal("unchoke did not start a transfer")
	}
	// One 64 kB piece at 64 kB/s: done at ~1 s. Stop mid-download: once
	// the leecher completes it tears the connection down, and a closed
	// conn is recycled after its event.
	s.eng.Run(8)
	if leech.connTo(seed) != lc {
		t.Fatal("the connection closed before the check")
	}
	if leech.downloaded == 0 {
		t.Fatal("no pieces downloaded")
	}
	// Byte accounting symmetric at both endpoints.
	if in, out := lc.inEst.Total(), c.outEst.Total(); in != out {
		t.Fatalf("downloaded %d != uploaded %d", in, out)
	}
	wantMin := int64(leech.downloaded) * int64(s.cfg.PieceSize)
	if lc.inEst.Total() < wantMin {
		t.Fatalf("accounted %d bytes for %d pieces", lc.inEst.Total(), leech.downloaded)
	}
}

func TestChokeMidPieceKeepsRemainder(t *testing.T) {
	s := newTestSwarm(t, nil)
	seed := s.addPeer(true, false, false, 8<<10, 0) // slow: 8 s per 64 kB piece
	leech := s.addPeer(false, false, false, 8<<10, 0)
	c := seed.connTo(leech)
	seed.applyChoke(c, true)
	s.eng.Run(s.eng.Now() + 3) // ~3/8 of the piece transferred
	lc := leech.connTo(seed)
	piece := int(lc.flowPiece)
	seed.applyChoke(c, false)
	rem, ok := leech.remaining(piece)
	if !ok {
		t.Fatal("partial piece discarded on choke")
	}
	full := float64(s.cfg.PieceSize)
	if rem >= full || rem <= 0 {
		t.Fatalf("remainder %f out of (0,%f)", rem, full)
	}
	if math.Abs(rem-(full-3*8<<10)) > 1024 {
		t.Fatalf("remainder %f, want ~%f", rem, full-3*8<<10)
	}
	// Re-unchoke: the resume transfers only the remainder.
	seed.applyChoke(c, true)
	if int(lc.flowPiece) != piece {
		t.Fatalf("resume picked piece %d, want %d", lc.flowPiece, piece)
	}
	if math.Abs(lc.flowBytes-rem) > 1 {
		t.Fatalf("resume flow is %f bytes, want %f", lc.flowBytes, rem)
	}
}

func TestMaybeRequestGuards(t *testing.T) {
	s := newTestSwarm(t, nil)
	seed := s.addPeer(true, false, false, 1e5, 0)
	leech := s.addPeer(false, false, false, 1e5, 0)
	lc := leech.connTo(seed)
	// Not unchoked: no flow.
	leech.maybeRequest(lc)
	if lc.inFlow != nil {
		t.Fatal("requested while choked")
	}
	// Seeds never request.
	sc := seed.connTo(leech)
	lc.amUnchoking = true
	sc.amInterested = true // forced; a seed is never interested in reality
	seed.maybeRequest(sc)
	if sc.inFlow != nil {
		t.Fatal("seed started a download")
	}
}

func TestDepartCleansUpEverything(t *testing.T) {
	s := newTestSwarm(t, nil)
	seed := s.addPeer(true, false, false, 1e5, 0)
	a := s.addPeer(false, false, false, 1e5, 0)
	b := s.addPeer(false, false, false, 1e5, 0)
	if s.trk.Len() != 3 {
		t.Fatalf("tracker size %d", s.trk.Len())
	}
	// Start a transfer seed->a, then kill the seed.
	c := seed.connTo(a)
	seed.applyChoke(c, true)
	seed.depart()
	if s.trk.Len() != 2 {
		t.Fatalf("tracker size after depart %d", s.trk.Len())
	}
	if a.connectedTo(seed) || b.connectedTo(seed) {
		t.Fatal("departed peer still connected")
	}
	if ac := a.connTo(seed); ac != nil {
		t.Fatal("conn list leak")
	}
	// Global availability dropped the seed's pieces.
	if s.globalAvail.Count(0) != 0 {
		t.Fatalf("global avail %d after seed left", s.globalAvail.Count(0))
	}
	// Departing twice is safe.
	seed.depart()
}

func TestFreeRiderNeverUnchokes(t *testing.T) {
	s := newTestSwarm(t, func(cfg *Config) { cfg.NumPieces = 8 })
	fr := s.addPeer(false, true, false, 1e5, 0)
	// Give the free rider all pieces so others would want from it.
	for i := 0; i < s.cfg.NumPieces; i++ {
		fr.have.Set(i)
	}
	leech := s.addPeer(false, false, false, 1e5, 0)
	_ = leech
	// Run several choke rounds: the free rider must never unchoke anyone.
	s.eng.Run(60)
	for _, c := range fr.connList {
		if c.amUnchoking {
			t.Fatal("free rider unchoked a peer")
		}
	}
}

func TestSeedStateSwitchesChoker(t *testing.T) {
	s := newTestSwarm(t, func(cfg *Config) {
		cfg.NumPieces = 4
		cfg.PieceSize = 64 << 10
	})
	seed := s.addPeer(true, false, false, 1e6, 0)
	leech := s.addPeer(false, false, false, 1e6, 0)
	_ = seed
	s.eng.Run(120)
	if !leech.seed {
		t.Fatalf("leecher did not finish (%d/%d)", leech.downloaded, s.cfg.NumPieces)
	}
	if leech.finishedAt <= leech.joinedAt {
		t.Fatal("finishedAt not stamped")
	}
}

// TestConnectCycleAllocatesOnePair pins the connection lifecycle's
// allocation budget: a connect-plus-disconnect cycle allocates nothing.
// Outside an event no post-event hook reclaims the retired pair, so every
// cycle takes two fresh conns; this is the cold-free-list cost, which
// connBlock-sized blocks amortize to under one allocation per 100 cycles
// (TestConnSlabAmortizes). TestNewConnZeroAllocWhenWarm covers the warm
// free list.
func TestConnectCycleAllocatesOnePair(t *testing.T) {
	s := newTestSwarm(t, nil)
	seed := s.addPeer(true, false, false, 1e5, 0)
	leech := s.addPeer(false, false, false, 1e5, 0)
	if leech.connTo(seed) == nil {
		t.Fatal("announce did not connect the pair")
	}
	cycle := func() {
		s.disconnect(leech, seed)
		s.connectNow(leech, seed)
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("connect+disconnect allocates %v objects, want 0", n)
	}
	if leech.connTo(seed) == nil || leech.connTo(seed).mirror != seed.connTo(leech) {
		t.Fatal("cycle left the pair disconnected or unmirrored")
	}
}

// TestRetiredConnReusedOnlyAfterItsEvent pins the recycling contract: a
// conn disconnect retires stays as disconnect left it, and is not handed
// to a new connection, until its event ends; after that it is reused.
func TestRetiredConnReusedOnlyAfterItsEvent(t *testing.T) {
	s := newTestSwarm(t, nil)
	// Slow seed: no piece completes (and no connection closes) by t=3.
	seed := s.addPeer(true, false, false, 4<<10, 0)
	leech := s.addPeer(false, false, false, 4<<10, 0)
	old := leech.connTo(seed)
	oldMirror := old.mirror
	retired := func(c *conn) bool { return c == old || c == oldMirror }
	s.eng.At(1, func() {
		s.disconnect(leech, seed)
		s.connectNow(leech, seed)
		fresh := leech.connTo(seed)
		if fresh == nil || retired(fresh) || retired(fresh.mirror) {
			t.Error("a conn retired in this event was handed out again within it")
		}
		if old.owner != leech || old.mirror != oldMirror || oldMirror.owner != seed || !old.closed || old.gen == 0 {
			t.Error("a retired conn changed before its event ended")
		}
	})
	s.eng.At(2, func() {
		if old.owner != nil || old.gen != 0 || oldMirror.owner != nil {
			t.Error("a retired conn was not reclaimed after its event")
		}
		s.disconnect(leech, seed)
		s.connectNow(leech, seed)
		again := leech.connTo(seed)
		if again == nil || !retired(again) || !retired(again.mirror) {
			t.Error("the reclaimed pair was not reused")
		}
	})
	s.eng.Run(3)
}

// TestStaleConnReadsMirrorUntilReclaimed pins what a stale handle reads:
// a pair torn down while unchoked and transferring is marked closed on
// both sides, and each side still reaches its remote and the remote's
// interest and unchoke through its mirror until the event ends. The
// post-event hook then zeroes both sides onto the free list.
func TestStaleConnReadsMirrorUntilReclaimed(t *testing.T) {
	s := newTestSwarm(t, nil)
	// Slow seed: the leecher's first piece takes 16 s, so the transfer
	// is still running at t=1.
	seed := s.addPeer(true, false, false, 4<<10, 0)
	leech := s.addPeer(false, false, false, 4<<10, 0)
	lc, sc := leech.connTo(seed), seed.connTo(leech)
	s.eng.At(1, func() {
		seed.applyChoke(sc, true)
		if !lc.amInterested || !sc.amUnchoking || lc.inFlow == nil {
			t.Fatal("the pair is not unchoked and transferring")
		}
		s.disconnect(leech, seed)
		if !lc.closed || !sc.closed {
			t.Error("disconnect did not mark both sides closed")
		}
		if lc.mirror != sc || sc.mirror != lc || lc.mirror.owner != seed || sc.mirror.owner != leech {
			t.Error("a stale side no longer reaches its remote through its mirror")
		}
		if !lc.mirror.amUnchoking || !sc.mirror.amInterested {
			t.Error("a stale side no longer reads the remote's unchoke and interest")
		}
		if lc.inFlow != nil {
			t.Error("disconnect left the leecher's download running")
		}
	})
	s.eng.Run(2)
	for _, c := range []*conn{lc, sc} {
		if *c != (conn{}) {
			t.Errorf("a side was not zeroed after its event: %+v", *c)
		}
		if !slices.Contains(s.connFree, c) {
			t.Error("a side is not on the free list after its event")
		}
	}
}

// TestChaosResetSkipsReconnectOnSameMemory arms a chaos reset for one
// connection, closes it and reconnects the same pair in the other
// direction, which puts the leecher's side on the old conn's memory. The
// timer must leave the new connection alone: identity alone cannot tell
// the two apart, the generation can.
func TestChaosResetSkipsReconnectOnSameMemory(t *testing.T) {
	s := newTestSwarm(t, func(cfg *Config) {
		cfg.Chaos = &Chaos{ConnResetRate: 1, ConnResetMeanDelay: 1}
	})
	seed := s.addPeer(true, false, false, 4<<10, 0)
	leech := s.addPeer(false, false, false, 4<<10, 0)
	armed := leech.connTo(seed) // the leecher initiated: its side is the timer's
	if armed == nil {
		t.Fatal("announce did not connect the pair")
	}
	s.disconnect(leech, seed)
	s.cfg.Chaos.ConnResetRate = 0 // the reconnect arms no timer of its own
	s.eng.At(0, func() { s.connectNow(seed, leech) })
	s.eng.Run(0)
	if leech.connTo(seed) != armed {
		t.Fatal("the reconnect did not reuse the armed conn's memory")
	}
	s.eng.Run(50) // the Exp(1 s) reset has fired by now
	if leech.connTo(seed) != armed {
		t.Fatal("a reset armed for a closed connection tore down its successor")
	}
}

// TestNewConnZeroAllocWhenWarm pins the free list: once a reclaimed conn
// is waiting, newConn allocates nothing.
func TestNewConnZeroAllocWhenWarm(t *testing.T) {
	s := newTestSwarm(t, nil)
	cycle := func() {
		c := s.newConn()
		s.connRetired = append(s.connRetired, c)
		s.reclaimConns()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("newConn with a warm free list allocates %v objects, want 0", n)
	}
}

// TestConnRecordSize pins the conn layout: conns are carved from blocks
// of connBlock, and 512 144-byte conns fill nine 8 KiB pages exactly; a
// block that is not whole pages gives the rest back to rounding.
func TestConnRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(conn{}); got > 144 {
		t.Fatalf("conn is %d bytes, want at most 144", got)
	}
	if block := connBlock * unsafe.Sizeof(conn{}); block%8192 != 0 {
		t.Fatalf("a %d-conn block is %d bytes, not whole 8 KiB pages", connBlock, block)
	}
}

// TestConnSlabAmortizes pins the slab: with an empty free list, 1000
// newConn calls allocate one block per connBlock conns, and every conn
// is distinct.
func TestConnSlabAmortizes(t *testing.T) {
	s := newTestSwarm(t, nil)
	s.connFree, s.connSlab = nil, nil
	const n = 1000
	seen := make(map[*conn]bool, n)
	got := make([]*conn, 0, n)
	allocs := testing.AllocsPerRun(1, func() {
		got = got[:0]
		for i := 0; i < n; i++ {
			got = append(got, s.newConn())
		}
	})
	if want := float64((n + connBlock - 1) / connBlock); allocs > want {
		t.Fatalf("%d newConn calls allocate %v objects, want at most %v", n, allocs, want)
	}
	for _, c := range got {
		if seen[c] {
			t.Fatal("newConn handed out the same conn twice")
		}
		seen[c] = true
	}
}

// TestPeerSetAllocatedOnce churns connections up to MaxPeerSet and checks
// that no peer's connList is ever reallocated: it is made at the cap when
// the peer joins.
func TestPeerSetAllocatedOnce(t *testing.T) {
	s := newTestSwarm(t, func(c *Config) { c.MaxPeerSet = 6 })
	hub := s.addPeer(true, false, false, 1e5, 0)
	var peers []*Peer
	for i := 0; i < 10; i++ {
		peers = append(peers, s.addPeer(false, false, false, 1e5, 0))
	}
	all := append([]*Peer{hub}, peers...)
	lists := make([]**conn, len(all))
	for i, p := range all {
		if cap(p.connList) != s.cfg.MaxPeerSet {
			t.Fatalf("peer %d joined with cap %d, want %d", p.id, cap(p.connList), s.cfg.MaxPeerSet)
		}
		lists[i] = &p.connList[:1][0]
	}
	check := func(when string) {
		t.Helper()
		for i, p := range all {
			if cap(p.connList) != s.cfg.MaxPeerSet || &p.connList[:1][0] != lists[i] {
				t.Fatalf("%s: peer %d's connList was reallocated", when, p.id)
			}
		}
	}
	full := false
	for round := 0; round < 5; round++ {
		for _, q := range peers {
			s.disconnect(hub, q)
			check("disconnect")
		}
		s.reclaimConns()
		for _, q := range peers {
			s.connectNow(q, hub)
			check("connect")
			full = full || len(hub.connList) == s.cfg.MaxPeerSet
		}
		s.reclaimConns()
	}
	if !full {
		t.Fatal("the hub never filled its peer set")
	}
}

// TestPeerJoinAllocs pins what a join costs in a warm swarm, with
// staggered and with grid-aligned (ChokeLanes) rounds alike: nothing. The
// Peer comes from a 16-peer block, and its first choke timer from the
// engine's 64-timer blocks (no timer fires in this test, so the engine's
// timer pool is empty). The round fires the peerEvent handle held in the
// Peer, so arming it binds nothing. Everything else amortizes too: the
// bitfields, availability index, picker and chokers are values inside the
// Peer, their backing and the connList come from 16-peer slab blocks, the
// tracker sample reuses the swarm's buffer, and conns come from conn
// blocks: 0.54 allocations per join measured over 400 joins, which
// AllocsPerRun's integer average drops.
func TestPeerJoinAllocs(t *testing.T) {
	for _, lanes := range []bool{false, true} {
		s := newTestSwarm(t, func(cfg *Config) { cfg.ChokeLanes = lanes })
		s.addPeer(true, false, false, 1e5, 0)
		join := func() { s.addPeer(false, false, false, 1e5, 0) }
		for i := 0; i < 300; i++ {
			join()
		}
		if n := testing.AllocsPerRun(200, join); n != 0 {
			t.Fatalf("ChokeLanes=%v: a join allocates %v objects, want 0", lanes, n)
		}
	}
}

// TestJoinedPeerChokeRoundsZeroAlloc pins the swarm's one choke scratch:
// once other peers' rounds have grown it, a newly joined peer's first
// three serial choke rounds allocate nothing, because its chokers work in
// that scratch instead of growing their own. The joiner is a seed, so
// every leecher is interested in it and each round ranks rows. Running
// the swarm first also warms what the rounds' unchokes use (recycled
// flows and timers). The count is taken by hand: AllocsPerRun would
// spend the first round warming up.
func TestJoinedPeerChokeRoundsZeroAlloc(t *testing.T) {
	s := newTestSwarm(t, func(c *Config) { c.NumPieces = 256 })
	s.addPeer(true, false, false, 1e5, 0)
	for i := 0; i < 8; i++ {
		s.addPeer(false, false, false, 1e5, 0)
	}
	s.eng.Run(60)
	joiner := s.addPeer(true, false, false, 1e5, 0)
	rows := 0
	for _, c := range joiner.connList {
		if c.mirror.amInterested {
			rows++
		}
	}
	if rows < 2 {
		t.Fatalf("the joining seed has %d interested conns, want several", rows)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		joiner.runChokeRound()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("a joined peer's first three choke rounds allocate %d objects, want 0", n)
	}
	unchoked := 0
	for _, c := range joiner.connList {
		if c.amUnchoking {
			unchoked++
		}
	}
	if unchoked == 0 {
		t.Fatal("the joining seed unchoked nobody")
	}
}

// TestPeerStorageDisjoint fills everything one carved peer owns and
// checks that its block neighbour, carved right after it, is untouched:
// the bitfields and copy counts stay within their pieces, and appending
// past connList's capacity moves the list instead of writing into the
// neighbour's.
func TestPeerStorageDisjoint(t *testing.T) {
	s := newTestSwarm(t, nil)
	a := s.addPeer(false, false, false, 1e5, 0)
	b := s.addPeer(false, false, false, 1e5, 0) // connects to a
	n, ps := s.cfg.NumPieces, s.cfg.MaxPeerSet
	lastA, firstB := &a.connList[:ps][ps-1], &b.connList[:1][0]
	if unsafe.Add(unsafe.Pointer(lastA), unsafe.Sizeof(lastA)) != unsafe.Pointer(firstB) {
		t.Fatal("the two peers' connLists are not neighbours in one block")
	}
	b.have.Set(1)
	b.inflight.Set(2)
	b.avail.Inc(3)
	wantList := append([]*conn(nil), b.connList[:ps]...)
	wantCounts := make([]int, n)
	for i := range wantCounts {
		wantCounts[i] = b.avail.Count(i)
	}

	a.have.SetAll()
	a.inflight.SetAll()
	for i := 0; i < n; i++ {
		a.avail.Inc(i)
	}
	for len(a.connList) <= ps {
		a.connList = append(a.connList, &conn{})
	}

	if b.have.Count() != 1 || !b.have.Has(1) || b.inflight.Count() != 1 || !b.inflight.Has(2) {
		t.Fatalf("filling the first peer's bitfields changed its neighbour's: have %v, inflight %v", b.have, b.inflight)
	}
	for i, want := range wantCounts {
		if got := b.avail.Count(i); got != want {
			t.Fatalf("filling the first peer's counts changed its neighbour's piece %d: %d, want %d", i, got, want)
		}
	}
	for i, want := range wantList {
		if got := b.connList[:ps][i]; got != want {
			t.Fatalf("appending past the first peer's connList wrote its neighbour's slot %d", i)
		}
	}
}
