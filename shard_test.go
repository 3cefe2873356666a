package rarestfirst

// Sharded event-heap determinism at the report level (PR 6): sharding is
// trajectory-preserving (a sharded run must digest identically to the
// unsharded oracle), and the shard-parallel staged retime apply is
// worker-count-invariant (serial and parallel flush applies must digest
// identically). CI repeats these under the race detector.

import (
	"testing"

	"rarestfirst/internal/swarm"
)

// shardDigest runs sc with an explicit worker count and digests the
// report with the Scenario's HeapShards echo normalized away — the digest
// then covers only simulation output, so it is equal across shard counts
// exactly when the trajectories are.
func shardDigest(t *testing.T, sc Scenario, workers int) (string, *Report) {
	t.Helper()
	cfg, spec, err := buildConfig(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LaneWorkers = workers
	res := swarm.New(cfg).Run()
	rep := buildReport(sc, spec, cfg, res)
	norm := *rep
	norm.Scenario.HeapShards = 0
	return reportDigest(t, &norm), rep
}

// TestShardedRunMatchesUnsharded pins the tentpole claim: HeapShards is a
// pure data-structure change, so the full report of a sharded run is
// byte-identical to the single-heap oracle's — without BatchHaves, whose
// trajectory change is a separate, opted-into contract.
func TestShardedRunMatchesUnsharded(t *testing.T) {
	base := Scenario{
		Label:     "shard-oracle-t7",
		TorrentID: 7,
		Scale: Scale{
			MaxPeers:     300,
			MaxContentMB: 16,
			MaxPieces:    64,
			Duration:     600,
			Warmup:       300,
			Seed:         42,
		},
		ChokeLanes:   true,
		SeedOverride: 11,
	}
	oracle, orep := shardDigest(t, base, 4)
	for _, shards := range []int{1, 8, 32} {
		sc := base
		sc.HeapShards = shards
		got, rep := shardDigest(t, sc, 4)
		if got != oracle {
			t.Errorf("HeapShards=%d digest %s != single-heap oracle digest %s", shards, got, oracle)
		}
		if rep.Events.Shards == 0 || rep.Events.MergePops == 0 {
			t.Errorf("HeapShards=%d run reported no shard stats: %+v", shards, rep.Events)
		}
	}
	if orep.Events.Shards != 0 || orep.Events.MergePops != 0 {
		t.Errorf("unsharded run leaked shard stats: %+v", orep.Events)
	}
}

// TestHeapShardParallelMatchesSerial pins the worker-count invariance of
// the shard-parallel staged retime apply on a full MegaSwarm-lever run —
// choke lanes, sharded heap and batched HAVEs all on — at a swarm size
// whose choke instants mark hundreds of nodes dirty, so Phase B genuinely
// fans across workers.
func TestHeapShardParallelMatchesSerial(t *testing.T) {
	sc := Scenario{
		Label:     "shard-flush-t7",
		TorrentID: 7,
		Scale: Scale{
			MaxPeers:     300,
			MaxContentMB: 16,
			MaxPieces:    64,
			Duration:     600,
			Warmup:       300,
			Seed:         42,
		},
		ChokeLanes:   true,
		HeapShards:   32,
		BatchHaves:   true,
		SeedOverride: 11,
	}
	serial, srep := retimeReport(t, sc, 1)
	parallel, prep := retimeReport(t, sc, 8)
	if serial != parallel {
		t.Errorf("parallel staged-apply digest %s != serial digest %s", parallel, serial)
	}
	if again, _ := retimeReport(t, sc, 8); again != parallel {
		t.Errorf("parallel staged-apply run not reproducible: %s vs %s", again, parallel)
	}
	for _, rep := range []*Report{srep, prep} {
		if rep.Events.Shards != 32 || rep.Events.MergePops == 0 || rep.Events.PeakShardHeap == 0 {
			t.Fatalf("shard stats missing from report: %+v", rep.Events)
		}
		// The run must actually have exercised wide flushes, or the test
		// proves nothing about the parallel apply path.
		if rep.Events.PeakShardWidth < 64 {
			t.Fatalf("peak retime shard width %d never reached the parallel fan-out threshold", rep.Events.PeakShardWidth)
		}
	}
}
