package swarm

// Crash-and-rejoin injection (Config.Crashes): the simulator twin of the
// live lab's process kill/restart schedules. A crashing peer is torn out
// of the swarm exactly like a departure — connections dropped with
// partial transfers discarded, tracker entry deregistered, availability
// counts decremented — but keeps its identity and (a configurable
// fraction of) its verified pieces, and rejoins after an exponential
// downtime wanting only what it lacks. Every draw (victim selection,
// crash instant, per-piece retention, downtime) comes from the engine
// RNG, so crash runs are bit-reproducible per seed and a nil plan adds
// zero draws — the golden scenarios are untouched.

// maybeScheduleCrash draws, at join time, whether leecher p will crash
// during the run and schedules the kill. Seeds, the instrumented local
// peer and Byzantine peers are never victims (matching the live harness,
// which only kills honest remote leechers). One Float64 draw per eligible
// joiner when a plan is configured; nil draws nothing.
func (s *Swarm) maybeScheduleCrash(p *Peer) {
	cr := s.cfg.Crashes
	if cr == nil || p.seed || p.isLocal || p.advPoison || p.advLiar || p.advFlood {
		return
	}
	if s.eng.RNG().Float64() >= cr.Frac {
		return
	}
	at := cr.WindowStart + float64(s.eng.RNG().Float64()*(cr.WindowEnd-cr.WindowStart)) // float64: no fused multiply-add
	if at <= s.eng.Now() {
		// Joined after its drawn kill instant: this peer dodges the crash.
		return
	}
	s.eng.At(at, func() { s.crashPeer(p) })
}

// crashPeer kills p: the SIGKILL twin. In-flight transfers are discarded
// (a torn piece write never survives a crash — the resume contract), the
// peer leaves the tracker and every availability index, and a rejoin is
// scheduled after an exponential downtime. Pieces are dropped per the
// retention draw before rejoin so the availability decrement/re-increment
// pair is audited by the invariant checker at both edges.
func (s *Swarm) crashPeer(p *Peer) {
	if p.departed || p.seed {
		// Departed already, or finished before the kill landed: the live
		// harness only kills peers still mid-transfer.
		return
	}
	cr := s.cfg.Crashes
	s.chaosFault("peer_crash", p, nil)
	p.departed = true
	if p.chokeTimer != nil {
		p.chokeTimer.Cancel()
		p.chokeTimer = nil
	}
	snapshot := append(p.connScratch[:0], p.connList...)
	p.connScratch = snapshot
	for _, c := range snapshot {
		s.disconnect(p, c.remote)
	}
	s.trk.Remove(p.id)
	s.globalAvail.RemovePeer(p.have)
	// Partial pieces die with the process: blocks already fetched for
	// unverified pieces are not in the resume file.
	p.pieceRemaining = p.pieceRemaining[:0]
	// Retention draw: each verified piece survives with probability
	// RetainFrac. The first crasher under DropAllFirst loses everything —
	// the sim twin of the live plan's corrupted resume file, with every
	// dropped piece counted as a resume hash failure.
	retain := cr.retainFrac()
	dropAll := cr.DropAllFirst && !s.crashCorruptDone
	if dropAll {
		s.crashCorruptDone = true
	}
	hashFails := 0
	for i := 0; i < s.cfg.NumPieces; i++ {
		if !p.have.Has(i) {
			continue
		}
		switch {
		case dropAll:
			p.have.Clear(i)
			hashFails++
		case retain < 1 && s.eng.RNG().Float64() >= retain:
			p.have.Clear(i)
		}
	}
	if hashFails > 0 {
		s.chaosFaultN("resume_hash_fail", hashFails, p)
	}
	p.downloaded = p.have.Count()
	retainedBytes := 0
	p.have.Range(func(i int) bool {
		retainedBytes += int(s.geo.PieceSize(i))
		return true
	})
	down := s.eng.RNG().ExpFloat64() * cr.meanDowntime()
	s.eng.After(down, func() { s.rejoinPeer(p, retainedBytes) })
}

// rejoinPeer restarts a crashed peer: same identity, the retained
// bitfield, a fresh tracker registration and a re-armed choke schedule.
// The peer re-announces immediately — the restart twin of the live
// client's startup announce.
func (s *Swarm) rejoinPeer(p *Peer, retainedBytes int) {
	if !p.departed || p.seed {
		return
	}
	s.chaosFault("peer_resume", p, nil)
	s.chaosFaultN("resume_bytes_saved", retainedBytes, p)
	p.departed = false
	s.trk.Put(p.id, p)
	s.globalAvail.AddPeer(p.have)
	p.armFirstChokeRound()
	s.announce(p)
}

// chaosFaultN is chaosFault for count-valued kinds (retained bytes,
// dropped pieces): the swarm_-prefixed aggregate always accumulates, the
// bare live-comparable name only when the local peer is involved.
func (s *Swarm) chaosFaultN(name string, n int, p *Peer) {
	s.metrics.faultN(name, n)
	s.col.AddFault("swarm_"+name, n)
	if p != nil && p.isLocal {
		s.col.AddFault(name, n)
	}
}
