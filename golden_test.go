package rarestfirst

// Golden-seed determinism tests: a fixed-seed run's full Report is a pure
// function of the scenario, so its serialization must never change unless
// the reproducibility contract is deliberately bumped (see the README
// "Performance" section for what the contract covers). Each row's report
// is committed as testdata/golden/<label>.json, one value per line, so a
// bump shows in git diff as the numbers that moved. Engine and network
// rewrites that involve no RNG must keep these files byte-for-byte; a
// documented bump regenerates them once via
//
//	go test -run TestGoldenSeedDigests -update-goldens

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// goldenJSON is the report's canonical JSON serialization (struct field
// order is fixed and map keys sort, so the byte stream is deterministic).
// Events is zeroed first: scheduler occupancy counters are performance
// telemetry, not simulation output — the contract says
// allocation/pooling internals are never contract-relevant, so a pure
// perf change (e.g. a different compaction threshold) must not disturb
// the goldens.
func goldenJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	clean := *rep
	clean.Events = EventHeapStats{}
	raw, err := clean.JSONLine()
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return raw
}

// reportDigest hashes goldenJSON, for tests that pin a run by one string.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	sum := sha256.Sum256(goldenJSON(t, rep))
	return hex.EncodeToString(sum[:])
}

var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/golden/<label>.json from the current implementation")

const goldenDir = "testdata/golden"

func goldenPath(label string) string { return filepath.Join(goldenDir, label+".json") }

// writeGolden records rep as label's golden, indented one value per line.
func writeGolden(t *testing.T, label string, rep *Report) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, goldenJSON(t, rep), "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(label), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkGolden compares rep with label's recorded golden and returns ""
// when they match, else the first 20 differing JSON paths with want and
// got, and the total count.
func checkGolden(t *testing.T, label string, rep *Report) string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(label))
	if err != nil {
		return fmt.Sprintf("read golden (run with -update-goldens to create): %v", err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, raw); err != nil {
		return fmt.Sprintf("parse golden: %v", err)
	}
	got := goldenJSON(t, rep)
	if bytes.Equal(want.Bytes(), got) {
		return ""
	}
	w, g := decodeJSON(t, want.Bytes()), decodeJSON(t, got)
	var lines []string
	n := jsonDiff("$", w, g, &lines)
	return fmt.Sprintf("%d field(s) differ from %s:\n  %s", n, goldenPath(label), strings.Join(lines, "\n  "))
}

// decodeJSON decodes raw keeping numbers as written, so a diff prints
// them exactly.
func decodeJSON(t *testing.T, raw []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decode report: %v", err)
	}
	return v
}

// jsonDiff walks two decoded JSON values in step, appends "path: want W,
// got G" to lines for each differing leaf while lines holds fewer than
// 20, and returns how many leaves differ. A key or element one side lacks
// reads as null on that side.
func jsonDiff(path string, want, got any, lines *[]string) int {
	switch w := want.(type) {
	case map[string]any:
		if g, ok := got.(map[string]any); ok {
			keys := make([]string, 0, len(w)+len(g))
			for k := range w {
				keys = append(keys, k)
			}
			for k := range g {
				if _, ok := w[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			n := 0
			for _, k := range keys {
				n += jsonDiff(path+"."+k, w[k], g[k], lines)
			}
			return n
		}
	case []any:
		if g, ok := got.([]any); ok {
			n := 0
			for i := 0; i < max(len(w), len(g)); i++ {
				var wi, gi any
				if i < len(w) {
					wi = w[i]
				}
				if i < len(g) {
					gi = g[i]
				}
				n += jsonDiff(fmt.Sprintf("%s[%d]", path, i), wi, gi, lines)
			}
			return n
		}
	}
	if reflect.DeepEqual(want, got) {
		return 0
	}
	if len(*lines) < 20 {
		*lines = append(*lines, fmt.Sprintf("%s: want %s, got %s", path, shortJSON(want), shortJSON(got)))
	}
	return 1
}

// shortJSON renders v for a diff line, cut to 60 bytes.
func shortJSON(v any) string {
	b, _ := json.Marshal(v)
	if len(b) > 60 {
		return string(b[:57]) + "..."
	}
	return string(b)
}

// goldenScenarios are the fixed-seed scenarios the digests cover. By row:
//   - steady-t7: the default rarest-first picker, leecher choker and seed
//     choker on a steady torrent;
//   - transient-t8-smart: a transient torrent with the smart-seed policy;
//   - freeride-t14-oldseed: free riders (the never-unchoke choker) and the
//     old seed choker;
//   - crash-t10-killrestart: the kill/rejoin path;
//   - lanes-t7: grid-aligned choke rounds (ChokeLanes), every peer's
//     first round on the next multiple of the choke interval;
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
		{Label: "lanes-t7", TorrentID: 7, Scale: BenchScale(), ChokeLanes: true, SeedOverride: 3},
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

func TestGoldenSeedDigests(t *testing.T) {
	t.Parallel()
	for _, sc := range goldenScenarios() {
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Label, err)
		}
		if *updateGoldens {
			writeGolden(t, sc.Label, rep)
			continue
		}
		if diff := checkGolden(t, sc.Label, rep); diff != "" {
			t.Errorf("%s: report changed; fixed-seed runs must be byte-stable, "+
				"and a documented reproducibility-contract bump regenerates "+
				"them with -update-goldens\n%s", sc.Label, diff)
		}
	}
	if *updateGoldens {
		t.Logf("rewrote %s", goldenDir)
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
