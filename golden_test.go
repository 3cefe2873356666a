package rarestfirst

// Golden-seed determinism tests: a fixed-seed run's full Report is a pure
// function of the scenario, so its serialized digest must never change
// unless the reproducibility contract is deliberately bumped (see the
// README "Performance" section for what the contract covers). Engine and
// network rewrites that involve no RNG must keep these digests
// byte-for-byte; a documented RNG-stream bump (e.g. the PR 2 picker
// rewrite) regenerates them once via
//
//	go test -run TestGoldenSeedDigests -update-goldens

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// reportDigest hashes the report's canonical JSON serialization (struct
// field order is fixed and map keys sort, so the byte stream is
// deterministic). Events is zeroed first: scheduler occupancy counters
// are performance telemetry, not simulation output — the contract says
// allocation/pooling internals are never contract-relevant, so a pure
// perf change (e.g. a different compaction threshold) must not disturb
// the digests.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	clean := *rep
	clean.Events = EventHeapStats{}
	raw, err := clean.JSONLine()
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/golden_digests.json from the current implementation")

// goldenScenarios are the fixed-seed scenarios the digests cover. By row:
//   - steady-t7: the default rarest-first picker, leecher choker and seed
//     choker on a steady torrent;
//   - transient-t8-smart: a transient torrent with the smart-seed policy;
//   - freeride-t14-oldseed: free riders (the never-unchoke choker) and the
//     old seed choker;
//   - crash-t10-killrestart: the kill/rejoin path;
//   - batched-t8: the deferred HAVE flush;
//   - lanes-t7: the lane schedule over a 32-shard heap, with batched HAVEs;
//   - boost-t8: newcomer-boosted optimistic unchokes;
//   - tft-t14: the tit-for-tat leecher choker;
//   - poison25-t10: a poisoning adversary and the ban path;
//   - chaos-t7: the chaos fault plan's connection resets;
//   - liar25-chaos-t7: a lying adversary under chaos, whose fake-HAVE
//     timeouts and resets are the two timers that hold a connection
//     across events;
//   - random-t10, sequential-t10, globalrarest-t10: the three ablation
//     pickers.
//
// Together they reach every Pick of a core.Picker and every Round of a
// core.Choker; scripts/golden_cover.sh fails when one drops to 0 %. All
// rows are simulator runs at BenchScale: they say nothing about the live
// backend.
func goldenScenarios() []Scenario {
	return []Scenario{
		{Label: "steady-t7", TorrentID: 7, Scale: BenchScale(), SeedOverride: 42},
		{Label: "transient-t8-smart", TorrentID: 8, Scale: BenchScale(), SmartSeedServe: true, SeedOverride: 7},
		{Label: "freeride-t14-oldseed", TorrentID: 14, Scale: BenchScale(), SeedChoke: SeedChokeOld, FreeRiderFraction: 0.2, SeedOverride: 99},
		{Label: "crash-t10-killrestart", TorrentID: 10, Scale: BenchScale(), Crashes: "kill-restart", SeedOverride: 11},
		{Label: "batched-t8", TorrentID: 8, Scale: BenchScale(), BatchHaves: true, SeedOverride: 5},
		{Label: "lanes-t7", TorrentID: 7, Scale: BenchScale(), ChokeLanes: true, HeapShards: 32, BatchHaves: true, SeedOverride: 3},
		{Label: "boost-t8", TorrentID: 8, Scale: BenchScale(), BoostNewcomers: true, SeedOverride: 13},
		{Label: "tft-t14", TorrentID: 14, Scale: BenchScale(), LeecherChoke: LeecherChokeTitForTat, SeedOverride: 17},
		{Label: "poison25-t10", TorrentID: 10, Scale: BenchScale(), Adversary: "poison25", SeedOverride: 19},
		{Label: "chaos-t7", TorrentID: 7, Scale: BenchScale(), Faults: "chaos", SeedOverride: 29},
		{Label: "liar25-chaos-t7", TorrentID: 7, Scale: BenchScale(), Adversary: "liar25", Faults: "chaos", SeedOverride: 31},
		{Label: "random-t10", TorrentID: 10, Scale: BenchScale(), Picker: PickerRandom, SeedOverride: 37},
		{Label: "sequential-t10", TorrentID: 10, Scale: BenchScale(), Picker: PickerSequential, SeedOverride: 41},
		{Label: "globalrarest-t10", TorrentID: 10, Scale: BenchScale(), Picker: PickerGlobalRarest, SeedOverride: 43},
	}
}

const goldenPath = "testdata/golden_digests.json"

func TestGoldenSeedDigests(t *testing.T) {
	t.Parallel()
	got := map[string]string{}
	for _, sc := range goldenScenarios() {
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Label, err)
		}
		got[sc.Label] = reportDigest(t, rep)
	}

	if *updateGoldens {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (run with -update-goldens to create): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	for label, digest := range got {
		if want[label] == "" {
			t.Errorf("%s: no recorded golden digest (run with -update-goldens)", label)
			continue
		}
		if digest != want[label] {
			t.Errorf("%s: report digest changed\n  got  %s\n  want %s\n"+
				"fixed-seed runs must be byte-stable; if this is a documented "+
				"reproducibility-contract bump, regenerate with -update-goldens",
				label, digest, want[label])
		}
	}
}

// TestGoldenRunTwiceIdentical guards the digest mechanism itself: two runs
// of the same scenario in one process must serialize identically.
func TestGoldenRunTwiceIdentical(t *testing.T) {
	sc := goldenScenarios()[0]
	rep1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := reportDigest(t, rep1), reportDigest(t, rep2); d1 != d2 {
		t.Fatalf("same scenario, different digests: %s vs %s", d1, d2)
	}
}
