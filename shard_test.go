package rarestfirst

// Event-heap determinism at the report level. Scenario.HeapShards and
// Scenario.BatchHaves have no effect (the engine is one heap, and HAVE
// reactions run inline), so a run must digest the same whatever they say;
// and a grid-aligned run with both set reproduces a fixed digest. CI
// repeats these under the race detector.

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
// reproduce one fixed digest.
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
	const want = "58bcd6a19e08a41ee667b22e126c69354d67902271ab10a5aa77c3392dc0c741"
	for _, shards := range []int{0, 32} {
		sc := base
		sc.HeapShards = shards
		if got := shardDigest(t, sc); got != want {
			t.Errorf("HeapShards=%d digest %s, want %s", shards, got, want)
		}
	}
}

// TestHeapShardParallelMatchesSerial pins the digest of a grid-aligned
// run with the no-op HeapShards and BatchHaves set, at a swarm size whose
// choke instants hold hundreds of rounds. With both normalized away, it
// must digest the same as the run without them.
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
	if want := "3ff3118c7e09733c91b06704ebad678b3855c813e0b4658ad3454a976987234d"; got != want {
		t.Errorf("all-modes digest %s, want %s", got, want)
	}
	plain := sc
	plain.HeapShards, plain.BatchHaves = 0, false
	norm := *rep
	norm.Scenario.HeapShards, norm.Scenario.BatchHaves = 0, false
	if a, b := reportDigest(t, &norm), shardDigest(t, plain); a != b {
		t.Errorf("the no-op HeapShards and BatchHaves moved the run: %s vs %s", a, b)
	}
}
