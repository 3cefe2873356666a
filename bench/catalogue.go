package main

// The benchmark's fixed vocabulary: the five workloads, the end-to-end
// metrics with their regression bounds, and the per-layer ledger. This
// file is the single source BENCHMARK.json is generated from
// (`go run ./bench -manifest`); bench_test.go fails when the two drift.

import "rarestfirst"

// runSeconds is how long one run times iterations (BENCHMARK.json's
// run_seconds).
const runSeconds = 18

// Workload names, in the order every full run executes them.
const (
	wSimSteady = "sim-steady"
	wSimFlash  = "sim-flashcrowd"
	wSimCat    = "sim-catalog"
	wLive      = "live-swarm"
	wTracker   = "tracker-announce"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// kernel is the reference kernel the workload's timings are scaled
	// by: the one a busy host slows as it slows the workload
	// (calibrate.go).
	kernel kernelKind
}

var workloads = []workloadDef{
	{wSimSteady, "default serial sim schedule (single heap, staggered choke rounds, eager availability): what every golden and figure runs on; lanes, shards and HAVE batching idle", memoryBound},
	{wSimFlash, "same sim layers in their other mode (choke lanes, 32 heap shards, batched HAVEs) under a 2k-peer flash crowd: lane compute/apply dominates, retime flush idles; the memory workload", memoryBound},
	{wSimCat, "26 short 20-peer Table I runs through Runner.RunSuite: config, swarm construction, report building and aggregation dominate instead of the event loop; bypasses the steady-state hot path", memoryBound},
	{wLive, "1 seed + 3 leechers over loopback TCP with the upload cap out of the way: wire codec, SHA-1 verify under the client mutex, block copies, requester; no sim layer runs", computeBound},
	{wTracker, "closed-loop compact re-announces against a 2000-peer swarm: the only request-serving component, O(swarm) per announce; no other workload issues more than a handful", memoryBound},
}

// metricDef is one named metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// carry none. Where says which traced runs measure a per-layer metric:
// a workload name, "sim" for the three simulator workloads, or "all"
// (the layer probes and the tracing overhead); elsewhere it reads 0.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Where  string
}

const (
	lower  = "lower"
	higher = "higher"

	everywhere = "all"
	simOnly    = "sim"
)

// measuredOn reports whether workload's traced run measures d.
func (d metricDef) measuredOn(workload string) bool {
	switch d.Where {
	case everywhere:
		return true
	case simOnly:
		return workload == wSimSteady || workload == wSimFlash || workload == wSimCat
	}
	return d.Where == workload
}

// End-to-end metrics: measured with tracing off, every one on every
// workload, each the median over a run's timed iterations. The four
// timings are in reference seconds (calibrate.go).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25, everywhere},
	{"wall_s", "s", lower, 0.25, everywhere},
	{"cpu_s", "s", lower, 0.25, everywhere},
	{"ops_per_s", "1/s", higher, 0.25, everywhere},
	{"allocs_per_op", "count", lower, 0.20, everywhere},
	{"alloc_mb_per_op", "MB", lower, 0.15, everywhere},
	{"peak_heap_mb", "MB", lower, 0.25, everywhere},
}

// Per-layer ledger: measured by the traced run and the layer probes.
// A metric whose layer the traced workload does not execute reads 0
// there (README "Where each per-layer metric is measured").
var perLayer = []metricDef{
	// sim engine
	{"sim.engine.events", "count", lower, 0, simOnly},
	{"sim.engine.ns_per_event", "ns", lower, 0, simOnly},
	{"sim.engine.timers_reused", "count", higher, 0, simOnly},
	{"sim.engine.heap_size_end", "count", lower, 0, simOnly},
	{"sim.engine.lane_compute_ms", "ms", lower, 0, simOnly},
	{"sim.engine.lane_apply_ms", "ms", lower, 0, simOnly},
	{"sim.engine.lane_batches", "count", lower, 0, simOnly},
	{"sim.engine.peak_lane_width", "count", higher, 0, simOnly},
	{"sim.engine.merge_ms", "ms", lower, 0, simOnly},
	{"sim.engine.merge_pops", "count", lower, 0, simOnly},
	{"sim.engine.peak_shard_heap", "count", lower, 0, simOnly},
	{"sim.engine.schedule_fire_ns", "ns", lower, 0, everywhere},
	{"sim.engine.schedule_fire_sharded_ns", "ns", lower, 0, everywhere},
	// sim net
	{"sim.net.retime_flush_ms", "ms", lower, 0, simOnly},
	{"sim.net.dirty_flushes", "count", lower, 0, simOnly},
	{"sim.net.retime_batches", "count", lower, 0, simOnly},
	{"sim.net.peak_shard_width", "count", higher, 0, simOnly},
	{"sim.net.flow_churn_ns", "ns", lower, 0, everywhere},
	// swarm
	{"swarm.new_ms", "ms", lower, 0, simOnly},
	{"swarm.run_ms", "ms", lower, 0, simOnly},
	{"swarm.run_self_ms", "ms", lower, 0, simOnly},
	{"swarm.have_flush_ms", "ms", lower, 0, simOnly},
	{"swarm.arrivals", "count", higher, 0, simOnly},
	// scenario / report
	{"scenario.config_us", "us", lower, 0, simOnly},
	{"report.build_ms", "ms", lower, 0, simOnly},
	{"report.aggregate_ms", "ms", lower, 0, wSimCat},
	// core
	{"core.availability.inc_dec_ns", "ns", lower, 0, everywhere},
	{"core.availability.pick_rarest_ns", "ns", lower, 0, everywhere},
	{"core.availability.lazy_inc_dec_ns", "ns", lower, 0, everywhere},
	{"core.availability.lazy_pick_rarest_ns", "ns", lower, 0, everywhere},
	{"core.requester.block_cycle_ns", "ns", lower, 0, everywhere},
	{"core.requester.allocs_per_block", "count", lower, 0, everywhere},
	{"core.choker.leecher_round_ns", "ns", lower, 0, everywhere},
	{"core.choker.seed_round_ns", "ns", lower, 0, everywhere},
	// bitfield / rate / trace / obs
	{"bitfield.missing_scan_ns", "ns", lower, 0, everywhere},
	{"rate.estimator.update_ns", "ns", lower, 0, everywhere},
	{"trace.collector.event_ns", "ns", lower, 0, everywhere},
	{"obs.counter_inc_ns", "ns", lower, 0, everywhere},
	{"obs.counter_nil_ns", "ns", lower, 0, everywhere},
	// wire
	{"wire.encode_piece_ns", "ns", lower, 0, everywhere},
	{"wire.decode_piece_ns", "ns", lower, 0, everywhere},
	{"wire.decode_piece_allocs", "count", lower, 0, everywhere},
	{"wire.small_msg_ns", "ns", lower, 0, everywhere},
	// metainfo / bencode
	{"metainfo.verify_piece_mb_s", "MB/s", higher, 0, everywhere},
	{"metainfo.build_mb_s", "MB/s", higher, 0, everywhere},
	{"bencode.encode_announce_us", "us", lower, 0, everywhere},
	{"bencode.decode_announce_us", "us", lower, 0, everywhere},
	// client
	{"client.goodput_mb_s", "MB/s", higher, 0, wLive},
	{"client.new_seed_ms", "ms", lower, 0, wLive},
	{"client.startup_ms", "ms", lower, 0, wLive},
	{"client.ttc_spread_ms", "ms", lower, 0, wLive},
	{"client.seed_upload_share", "ratio", lower, 0, wLive},
	{"client.downloaded_over_content", "ratio", lower, 0, wLive},
	{"client.single_pair_mb_s", "MB/s", higher, 0, wLive},
	{"client.resume_ratio", "ratio", lower, 0, wLive},
	{"client.persist_us_per_piece", "us", lower, 0, wLive},
	{"client.trace_ratio", "ratio", lower, 0, wLive},
	// tracker
	{"tracker.announces_per_s", "1/s", higher, 0, wTracker},
	{"tracker.announce_p50_ms", "ms", lower, 0, wTracker},
	{"tracker.announce_p99_ms", "ms", lower, 0, wTracker},
	{"tracker.open_loop_late_ms", "ms", lower, 0, wTracker},
	{"tracker.handler_us", "us", lower, 0, wTracker},
	{"tracker.handler_p99_us", "us", lower, 0, wTracker},
	{"tracker.handler_us_200peers", "us", lower, 0, wTracker},
	{"tracker.http_overhead_us", "us", lower, 0, wTracker},
	{"tracker.populate_s", "s", lower, 0, wTracker},
	// optional-layer overhead rows (option set / nil) and tracing overhead
	{"overhead.metrics_ratio", "ratio", lower, 0, wSimSteady},
	{"overhead.debugchecks_ratio", "ratio", lower, 0, wSimSteady},
	{"overhead.chaos_ratio", "ratio", lower, 0, wSimSteady},
	{"overhead.adversary_ratio", "ratio", lower, 0, wSimSteady},
	{"overhead.crashes_ratio", "ratio", lower, 0, wSimSteady},
	{"trace_overhead_ratio", "ratio", lower, 0, everywhere},
	// the host: each reference kernel's wall time over its nominal
	{"host.memory_slowdown", "ratio", lower, 0, everywhere},
	{"host.compute_slowdown", "ratio", lower, 0, everywhere},
}

// sizes fixes every workload's dimensions. full() is the benchmark;
// smoke() is the seconds-long sizing bench_test.go runs under tier-1.
type sizes struct {
	steady, flash     rarestfirst.Scenario
	steadyMinFinished int   // leechers that must finish the steady download
	flashMinPeers     int   // arrivals the flash crowd must reach
	catalog           []int // Table I ids; nil = all 26
	catalogScale      rarestfirst.Scale
	overhead          rarestfirst.Scenario

	liveContent  int // bytes
	livePieceLen int
	liveLeechers int
	liveWarmups  int

	trackerPeers int // pre-populated swarm
	trackerWarm  int // closed-loop warm-up announces
	trackerBatch int // announces per timed iteration
	openLoopRate int // announces/s
	openLoopSecs float64

	setupReps     int // slices (set-up + timed iterations, one process each) per run; setup_s is their median
	tracePairs    int // times the traced run executes each scenario decomposed and whole
	overheadIters int
	probeIters    int     // client probes (resume, trace, single pair)
	probeScale    float64 // multiplies the micro-probes' loop counts
}

// The simulator workloads are sized so that one iteration takes about a
// second: a run then holds fifteen or more iterations, each between two
// reference-kernel runs, which is what steadies its median on a shared
// host (README "Noise"). The modes and layers are those of the full-size
// scenarios; only the population is cut.
func fullSizes() sizes {
	steady := rarestfirst.LargeSwarmScenario()
	steady.Label = "large-swarm-100"
	steady.Scale.MaxPeers = 100
	flash := rarestfirst.FlashCrowd20kScenario()
	flash.Label = "flash-crowd-2k"
	flash.Scale.MaxPeers = 2000
	flash.ChurnScale = 5
	catalog := rarestfirst.BenchScale()
	catalog.MaxPeers = 20
	return sizes{
		steady:            steady,
		flash:             flash,
		steadyMinFinished: 100,
		flashMinPeers:     2500,
		catalogScale:      catalog,
		overhead:          rarestfirst.Scenario{Label: "steady-t7", TorrentID: 7, Scale: rarestfirst.BenchScale()},
		liveContent:       32 << 20,
		livePieceLen:      256 << 10,
		liveLeechers:      3,
		liveWarmups:       2,
		trackerPeers:      2000,
		trackerWarm:       500,
		trackerBatch:      1000,
		openLoopRate:      300,
		openLoopSecs:      8,
		setupReps:         3,
		tracePairs:        2,
		overheadIters:     5,
		probeIters:        5,
		probeScale:        1,
	}
}

func smokeSizes() sizes {
	bench := rarestfirst.BenchScale() // 60 peers
	bench.Duration, bench.Warmup = 600, 200
	flash := rarestfirst.Scenario{Label: "flash-smoke", TorrentID: 8, Scale: bench,
		ChokeLanes: true, HeapShards: 32, BatchHaves: true, ChurnScale: 2}
	return sizes{
		steady:            rarestfirst.Scenario{Label: "steady-smoke", TorrentID: 3, Scale: bench},
		flash:             flash,
		steadyMinFinished: 1,
		flashMinPeers:     1,
		catalog:           []int{1, 3, 8},
		catalogScale:      bench,
		overhead:          rarestfirst.Scenario{Label: "steady-t3", TorrentID: 3, Scale: bench},
		liveContent:       1 << 20,
		livePieceLen:      64 << 10,
		liveLeechers:      3,
		liveWarmups:       0,
		trackerPeers:      200,
		trackerWarm:       50,
		trackerBatch:      100,
		openLoopRate:      200,
		openLoopSecs:      0.25,
		setupReps:         1,
		tracePairs:        1,
		overheadIters:     1,
		probeIters:        1,
		probeScale:        0.02,
	}
}

// kernelOf is the reference kernel that scales workload's timings.
func kernelOf(workload string) kernelKind {
	for _, w := range workloads {
		if w.Name == workload {
			return w.kernel
		}
	}
	return memoryBound
}
