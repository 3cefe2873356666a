package rarestfirst

// Sharded event-heap determinism at the report level: sharding is
// trajectory-preserving (a sharded run must digest identically to the
// unsharded oracle), and a run with every lever on reproduces a fixed
// digest, recorded when serial and 8-worker lane computes still had to
// agree on it. CI repeats these under the race detector.

import "testing"

// shardDigest runs sc and digests the report with the Scenario's
// HeapShards echo normalized away — the digest then covers only
// simulation output, so it is equal across shard counts exactly when the
// trajectories are.
func shardDigest(t *testing.T, sc Scenario) (string, *Report) {
	t.Helper()
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	norm := *rep
	norm.Scenario.HeapShards = 0
	return reportDigest(t, &norm), rep
}

// TestShardedRunMatchesUnsharded pins the tentpole claim: HeapShards is a
// pure data-structure change, so the full report of a sharded run is
// byte-identical to the single-heap oracle's — without BatchHaves, whose
// trajectory change is a separate, opted-into contract.
func TestShardedRunMatchesUnsharded(t *testing.T) {
	t.Parallel()
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
	oracle, orep := shardDigest(t, base)
	for _, shards := range []int{1, 8, 32} {
		sc := base
		sc.HeapShards = shards
		got, rep := shardDigest(t, sc)
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

// TestHeapShardParallelMatchesSerial pins the digest of a run with every
// engine mode on — choke lanes, sharded heap and batched HAVEs — at a
// swarm size whose choke instants mark hundreds of nodes dirty, so the
// lane batches are wide and each is followed by a wide flush into the 32
// subheaps.
func TestHeapShardParallelMatchesSerial(t *testing.T) {
	t.Parallel()
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
	got, rep := retimeReport(t, sc)
	if want := "7516f52bd719269f3af45a365c2d770136bfde9f6df040e0930aaaac5c4c17c7"; got != want {
		t.Errorf("all-modes digest %s, want %s", got, want)
	}
	if rep.Events.Shards != 32 || rep.Events.MergePops == 0 || rep.Events.PeakShardHeap == 0 {
		t.Fatalf("shard stats missing from report: %+v", rep.Events)
	}
	// The run must actually have run wide lane batches and followed them
	// with wide flushes, or the test proves nothing.
	if rep.Events.PeakLaneWidth < 64 || rep.Events.PeakShardWidth < 64 {
		t.Fatalf("peak lane batch %d, peak flush width %d: want both >= 64",
			rep.Events.PeakLaneWidth, rep.Events.PeakShardWidth)
	}
}
