package rarestfirst

// Event-heap determinism at the report level. Scenario.HeapShards has no
// effect (the engine is one heap), so a run must digest the same whatever
// it says; and a run with every engine mode on reproduces a fixed digest,
// recorded when the heap was still sharded 32 ways and serial and
// 8-worker lane computes still had to agree on it. CI repeats these under
// the race detector.

import "testing"

// shardDigest runs sc and digests the report with the Scenario's
// HeapShards echo normalized away — the digest then covers only
// simulation output, so it is equal across shard counts exactly when the
// trajectories are.
func shardDigest(t *testing.T, sc Scenario) string {
	t.Helper()
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	norm := *rep
	norm.Scenario.HeapShards = 0
	return reportDigest(t, &norm)
}

// TestShardedRunMatchesUnsharded pins that HeapShards 0 and 32 both
// reproduce the digest that the single heap and 1, 8 and 32 shards agreed
// on while the sharded heap existed.
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
	const want = "e3c0775a71350e5cceb0d34a44a939ad30e8f698b549d60ecbe5d76054912cea"
	for _, shards := range []int{0, 32} {
		sc := base
		sc.HeapShards = shards
		if got := shardDigest(t, sc); got != want {
			t.Errorf("HeapShards=%d digest %s, want %s", shards, got, want)
		}
	}
}

// TestHeapShardParallelMatchesSerial pins the digest of a run with every
// engine mode on — choke lanes and batched HAVEs, and the no-op
// HeapShards — at a swarm size whose choke instants mark hundreds of nodes
// dirty, so the lane batches are wide and each is followed by a wide
// flush.
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
	// The run must actually have run wide lane batches and followed them
	// with wide flushes, or the test proves nothing.
	if rep.Events.PeakLaneWidth < 64 || rep.Events.PeakShardWidth < 64 {
		t.Fatalf("peak lane batch %d, peak flush width %d: want both >= 64",
			rep.Events.PeakLaneWidth, rep.Events.PeakShardWidth)
	}
}
