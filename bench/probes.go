package main

// Layer probes: one small fixed loop per layer, timed by the harness, so
// a regression in a layer too cheap to see in a workload's wall time
// still has a row. Inputs come from the run's seed; sizes follow the
// workloads (256 pieces, 80 peers, 16 KiB blocks).

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"time"

	"rarestfirst/internal/bencode"
	"rarestfirst/internal/bitfield"
	"rarestfirst/internal/core"
	"rarestfirst/internal/metainfo"
	"rarestfirst/internal/obs"
	"rarestfirst/internal/rate"
	"rarestfirst/internal/sim"
	"rarestfirst/internal/trace"
	"rarestfirst/internal/wire"
)

const (
	probePieces = 256
	probePeers  = 80
	probeReps   = 3
)

// sink keeps the compiler from discarding a probe's result.
var sink int

// nsPerOp times loop(n) probeReps times and returns the median
// nanoseconds per operation.
func nsPerOp(n int, loop func(n int)) float64 {
	var xs []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		loop(n)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// allocsPerOp counts mallocs over one loop(n).
func allocsPerOp(n int, loop func(n int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	loop(n)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func randomBitfield(rng *rand.Rand, n int, density float64) *bitfield.Bitfield {
	b := bitfield.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// populatedAvailability indexes probePeers peers with half the pieces
// each.
func populatedAvailability(rng *rand.Rand, lazy bool) *core.Availability {
	a := core.NewAvailability(probePieces)
	a.SetLazy(lazy)
	for p := 0; p < probePeers; p++ {
		a.AddPeer(randomBitfield(rng, probePieces, 0.5))
	}
	return a
}

func (b *bench) layerProbes(seed int64, out *layerValues) error {
	n := func(full int) int { return max(1, int(float64(full)*b.sz.probeScale)) }
	runtime.GC() // start from the same heap whatever workload ran before
	rng := rand.New(rand.NewSource(seed))
	noop := func() {}

	// sim engine: schedule + fire against 4096 pending events.
	engineProbe := func(shards int) float64 {
		e := sim.NewEngine(seed)
		if shards > 0 {
			e.SetHeapShards(shards)
		}
		for i := 0; i < 4096; i++ {
			e.AtKey(1e9+float64(i), int64(i), noop)
		}
		return nsPerOp(n(500000), func(n int) {
			for i := 0; i < n; i++ {
				e.AfterKey(1, int64(i&4095), noop)
				e.Step()
			}
		})
	}
	out.set("sim.engine.schedule_fire_ns", engineProbe(0))
	out.set("sim.engine.schedule_fire_sharded_ns", engineProbe(32))

	// sim net: start a flow, settle, cancel it, settle, on a 300-node net.
	{
		e := sim.NewEngine(seed)
		net := sim.NewNet(e)
		const nodes = 300
		for i := 0; i < nodes; i++ {
			net.AddNode(1e5+float64(rng.Intn(1e5)), 1e6)
		}
		for i := 0; i < 2*nodes; i++ { // standing flows the churn competes with
			net.StartFlow(sim.NodeID(i%nodes), sim.NodeID((i*7+1)%nodes), 1e12, nil)
		}
		net.Flush()
		out.set("sim.net.flow_churn_ns", nsPerOp(n(100000), func(n int) {
			for i := 0; i < n; i++ {
				from := i % nodes
				f := net.StartFlow(sim.NodeID(from), sim.NodeID((from+1+i%(nodes-1))%nodes), 1e6, nil)
				net.Flush()
				f.Cancel()
				net.Flush()
			}
		}))
	}

	// core availability, eager (sim-steady) and lazy (sim-flashcrowd).
	// The pick probe moves one copy before every pick, which is what
	// makes the lazy index rebuild.
	for _, mode := range []struct {
		lazy       bool
		incDec, pk string
	}{
		{false, "core.availability.inc_dec_ns", "core.availability.pick_rarest_ns"},
		{true, "core.availability.lazy_inc_dec_ns", "core.availability.lazy_pick_rarest_ns"},
	} {
		a := populatedAvailability(rng, mode.lazy)
		out.set(mode.incDec, nsPerOp(n(2000000), func(n int) {
			for i := 0; i < n; i++ {
				a.Inc(i % probePieces)
				a.Dec((i + 7) % probePieces)
			}
		})/2)
		st := &core.PickState{Have: randomBitfield(rng, probePieces, 0.3), InFlight: bitfield.New(probePieces),
			Remote: randomBitfield(rng, probePieces, 0.7), Downloaded: 10}
		out.set(mode.pk, nsPerOp(n(200000), func(n int) {
			for i := 0; i < n; i++ {
				a.Inc(i % probePieces)
				a.Dec(i % probePieces)
				sink += a.PickRarest(rng, st)
			}
		}))
	}

	// core requester: a whole 256 x 16-block download from 8 peers, one
	// outstanding block per peer.
	{
		geo := metainfo.NewGeometry(probePieces*16*metainfo.BlockSize, 16*metainfo.BlockSize)
		full := bitfield.New(probePieces)
		full.SetAll()
		download := func(downloads int) {
			for d := 0; d < downloads; d++ {
				avail := core.NewAvailability(probePieces)
				for p := 0; p < 8; p++ {
					avail.AddPeer(full)
				}
				req := core.NewRequester(geo, &core.RarestFirst{Avail: avail})
				for i := 0; !req.Complete(); i++ {
					peer := core.PeerID(i % 8)
					if ref, ok := req.Next(rng, peer, full); ok {
						req.OnBlock(peer, ref)
					}
				}
			}
		}
		blocks := float64(geo.TotalBlocks())
		downloads := n(20)
		out.set("core.requester.block_cycle_ns", nsPerOp(downloads, download)/blocks)
		out.set("core.requester.allocs_per_block", allocsPerOp(downloads, download)/blocks)
	}

	// core chokers: 80 peers, 40 interested.
	{
		peers := make([]core.ChokePeer, probePeers)
		for i := range peers {
			peers[i] = core.ChokePeer{ID: core.PeerID(i), Interested: i%2 == 0, Unchoked: i%20 == 0,
				DownloadRate: rng.Float64() * 1e5, UploadRate: rng.Float64() * 1e5,
				LastUnchoked: rng.Float64() * 100, RemotePieces: rng.Intn(probePieces)}
		}
		round := func(c core.Choker) float64 {
			return nsPerOp(n(100000), func(n int) {
				for i := 0; i < n; i++ {
					sink += len(c.Round(100+10*float64(i), peers, rng))
				}
			})
		}
		out.set("core.choker.leecher_round_ns", round(core.NewLeecherChoker()))
		out.set("core.choker.seed_round_ns", round(core.NewSeedChoker()))
	}

	// bitfield, rate, trace, obs: the small per-event helpers.
	{
		x, y := randomBitfield(rng, probePieces, 0.5), randomBitfield(rng, probePieces, 0.5)
		out.set("bitfield.missing_scan_ns", nsPerOp(n(5000000), func(n int) {
			for i := 0; i < n; i++ {
				sink += x.CountMissingIn(y)
			}
		}))
		est := rate.NewEstimator(0)
		out.set("rate.estimator.update_ns", nsPerOp(n(5000000), func(n int) {
			for i := 0; i < n; i++ {
				est.Update(float64(i)*0.01, 16384)
			}
		}))
		col := trace.NewCollector(0)
		for p := 0; p < probePeers; p++ {
			col.PeerJoined(p, 0)
		}
		out.set("trace.collector.event_ns", nsPerOp(n(5000000), func(n int) {
			for i := 0; i < n; i++ {
				col.Downloaded(i%probePeers, float64(i)*0.01, 16384)
			}
		}))
		counter := func(c *obs.Counter) float64 {
			return nsPerOp(n(20000000), func(n int) {
				for i := 0; i < n; i++ {
					c.Inc()
				}
			})
		}
		out.set("obs.counter_inc_ns", counter(obs.NewRegistry().Counter("probe_total")))
		out.set("obs.counter_nil_ns", counter(nil))
	}

	// wire: the 16 KiB piece message both ways, and the smallest
	// messages, where the per-message cost is all there is.
	{
		block := make([]byte, metainfo.BlockSize)
		rng.Read(block)
		enc := wire.NewEncoder(io.Discard)
		var err error
		out.set("wire.encode_piece_ns", nsPerOp(n(500000), func(n int) {
			for i := 0; i < n && err == nil; i++ {
				err = enc.Piece(uint32(i%probePieces), 0, block)
			}
		}))
		var frame bytes.Buffer
		if err == nil {
			err = wire.NewEncoder(&frame).Piece(1, 0, block)
		}
		rd := bytes.NewReader(frame.Bytes())
		dec := wire.NewDecoder(rd)
		var m wire.Message
		decode := func(n int) {
			for i := 0; i < n && err == nil; i++ {
				rd.Reset(frame.Bytes())
				err = dec.Decode(&m)
			}
		}
		out.set("wire.decode_piece_ns", nsPerOp(n(500000), decode))
		out.set("wire.decode_piece_allocs", allocsPerOp(n(100000), decode))

		var small bytes.Buffer
		se := wire.NewEncoder(&small)
		sd := wire.NewDecoder(&small)
		out.set("wire.small_msg_ns", nsPerOp(n(1000000), func(n int) {
			for i := 0; i < n && err == nil; i++ {
				if err = se.Request(uint32(i), 0, metainfo.BlockSize); err == nil {
					err = se.Have(uint32(i))
				}
				for k := 0; k < 2 && err == nil; k++ {
					err = sd.Decode(&m)
				}
			}
		})/2)
		if err != nil {
			return err
		}
	}

	// metainfo: SHA-1 of one 256 KiB piece, and hashing a whole torrent.
	{
		content := make([]byte, 8<<20)
		rng.Read(content)
		const pieceLen = 256 << 10
		meta, err := metainfo.Build("probe", "", content, pieceLen)
		if err != nil {
			return err
		}
		ok := true
		perPiece := nsPerOp(n(2000), func(n int) {
			for i := 0; i < n; i++ {
				p := i % meta.NumPieces()
				ok = ok && meta.VerifyPiece(p, content[p*pieceLen:(p+1)*pieceLen])
			}
		})
		if !ok {
			return io.ErrUnexpectedEOF
		}
		out.set("metainfo.verify_piece_mb_s", float64(pieceLen)/(1<<20)/(perPiece/1e9))
		perBuild := nsPerOp(n(10), func(n int) {
			for i := 0; i < n && err == nil; i++ {
				_, err = metainfo.Build("probe", "", content, pieceLen)
			}
		})
		if err != nil {
			return err
		}
		out.set("metainfo.build_mb_s", float64(len(content))/(1<<20)/(perBuild/1e9))
	}

	// bencode: a compact announce reply with 50 peers.
	{
		compact := make([]byte, 6*50)
		rng.Read(compact)
		reply := map[string]any{"interval": 1800, "complete": 12, "incomplete": 1988, "peers": compact}
		var raw []byte
		var err error
		out.set("bencode.encode_announce_us", nsPerOp(n(100000), func(n int) {
			for i := 0; i < n && err == nil; i++ {
				raw, err = bencode.Encode(reply)
			}
		})/1e3)
		out.set("bencode.decode_announce_us", nsPerOp(n(100000), func(n int) {
			for i := 0; i < n && err == nil; i++ {
				_, err = bencode.Decode(raw)
			}
		})/1e3)
		if err != nil {
			return err
		}
	}
	return nil
}
