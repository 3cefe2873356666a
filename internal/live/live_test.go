package live

import (
	"sync"
	"testing"
	"time"

	"rarestfirst/internal/client"
	"rarestfirst/internal/scenario"
	"rarestfirst/internal/torrents"
)

// tinyConfig is a swarm small enough for unit tests: 4 peers moving
// 256 KiB over loopback.
func tinyConfig(seed int64) Config {
	return Config{
		Label:         "tiny",
		TorrentID:     10,
		Seed:          seed,
		NumPieces:     16,
		PieceSize:     16 << 10,
		Leechers:      3,
		SeedUploadBps: 4 << 20,
		PeerUploadBps: 2 << 20,
		ChokeInterval: 150 * time.Millisecond,
		SampleEvery:   100 * time.Millisecond,
		Stagger:       50 * time.Millisecond,
		Deadline:      60 * time.Second,
		Linger:        600 * time.Millisecond,
		MinResidency:  0.2,
	}
}

func TestLiveSwarmCompletes(t *testing.T) {
	res, err := Run(tinyConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if !res.LocalCompleted {
		t.Fatal("instrumented local peer did not complete")
	}
	if res.LocalDownloadSeconds <= 0 {
		t.Fatalf("local download time %v", res.LocalDownloadSeconds)
	}
	if res.Arrivals != 3 {
		t.Fatalf("arrivals = %d, want 3", res.Arrivals)
	}
	col := res.Collector
	if col.SeededAt() < 0 {
		t.Fatal("collector never saw seed state")
	}
	if len(col.PieceTimes) != 16 {
		t.Fatalf("collector saw %d piece completions, want 16", len(col.PieceTimes))
	}
	if len(col.BlockTimes) == 0 || len(col.Samples) == 0 {
		t.Fatalf("collector missing block times (%d) or samples (%d)",
			len(col.BlockTimes), len(col.Samples))
	}
	recs := col.Records()
	if len(recs) == 0 {
		t.Fatal("no peer records past the residency filter")
	}
	var sawSeed, sawDownload bool
	for _, r := range recs {
		if r.RemoteWasSeed {
			sawSeed = true
		}
		if r.DownloadedLS > 0 {
			sawDownload = true
		}
	}
	if !sawSeed {
		t.Error("no record flagged the initial seed as a seed")
	}
	if !sawDownload {
		t.Error("no record credits leecher-state downloads")
	}
	// Samples carry the lab's global counters: once everyone finished,
	// rare pieces must be gone by the final sample.
	last := col.Samples[len(col.Samples)-1]
	if last.GlobalRare != 0 {
		t.Errorf("final sample still reports %d rare pieces", last.GlobalRare)
	}
}

// TestLiveLabRunsSwarmsConcurrently runs two live swarms at once, each
// through Run on a goroutine of its own, as a suite runner's workers do.
func TestLiveLabRunsSwarmsConcurrently(t *testing.T) {
	cfgs := []Config{tinyConfig(1), tinyConfig(2)}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(cfg)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("swarm %d: %v", i, errs[i])
		}
		if !res.LocalCompleted {
			t.Fatalf("swarm %d did not complete: %+v", i, res)
		}
	}
}

func TestLiveSeedFailureKillsTorrent(t *testing.T) {
	cfg := tinyConfig(7)
	// Stop the seed almost immediately with a slow seed: not every piece
	// gets out, so the torrent dies — "a torrent is alive as long as
	// there is at least one copy of each piece".
	cfg.SeedUploadBps = 64 << 10
	cfg.SeedStopAfter = 400 * time.Millisecond
	cfg.Deadline = 3 * time.Second
	cfg.Linger = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalCompleted {
		t.Skip("seed drained all pieces before the failure injection; nothing to assert")
	}
	if res.LocalDownloadSeconds != -1 {
		t.Fatalf("incomplete run reports download time %v", res.LocalDownloadSeconds)
	}
}

func TestFromSpecDefaultsAndValidation(t *testing.T) {
	cfg, err := FromSpec(scenario.Spec{Label: "x", TorrentID: 10, Live: true})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Leechers != DefaultPeers-1 || cfg.NumPieces != DefaultPieces {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.PieceSize%(16<<10) != 0 {
		t.Fatalf("piece size %d not block-aligned", cfg.PieceSize)
	}
	if cfg.Seed != scenario.MixSeed(1, 10) {
		t.Fatalf("seed %d not mixed from catalog default", cfg.Seed)
	}

	// SeedOverride wins over Scale.Seed and decorrelates torrents.
	a, _ := FromSpec(scenario.Spec{TorrentID: 10, Live: true, SeedOverride: 5})
	b, _ := FromSpec(scenario.Spec{TorrentID: 8, Live: true, SeedOverride: 5})
	if a.Seed == b.Seed {
		t.Fatal("same seed for different torrents under one SeedOverride")
	}

	// Unsupported ablations are rejected loudly.
	bad := []scenario.Spec{
		{TorrentID: 10, Live: true, Picker: scenario.PickerRandom},
		{TorrentID: 10, Live: true, SeedChoke: scenario.SeedChokeOld},
		{TorrentID: 10, Live: true, LeecherChoke: scenario.LeecherChokeTitForTat},
		{TorrentID: 10, Live: true, FreeRiderFraction: 0.3},
		{TorrentID: 10, Live: true, SmartSeedServe: true},
	}
	for i, sp := range bad {
		if _, err := FromSpec(sp); err == nil {
			t.Errorf("spec %d accepted: %+v", i, sp)
		}
	}

	// Scale durations map to wall-clock deadlines.
	cfg, err = FromSpec(scenario.Spec{TorrentID: 8, Live: true,
		Scale: torrents.Scale{MaxPeers: 4, MaxContentMB: 1, MaxPieces: 16, Duration: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Deadline != 30*time.Second || cfg.Leechers != 3 || cfg.NumPieces != 16 {
		t.Fatalf("scale mapping wrong: %+v", cfg)
	}
}

// TestResiliencePolicyFollowsPerturbations: fault-free runs leave the
// client defaults alone; any fault plan, adversary or crash plan tightens
// the schedule to the run's seconds-scale deadline, and adversaries make
// bans outlast the run.
func TestResiliencePolicyFollowsPerturbations(t *testing.T) {
	for _, c := range []struct {
		sp     scenario.Spec
		banFor time.Duration
	}{
		{scenario.Spec{TorrentID: 10, Live: true}, 0},
		{scenario.Spec{TorrentID: 10, Live: true, Faults: "flaky"}, 2 * time.Second},
		{scenario.Spec{TorrentID: 10, Live: true, Crashes: "kill-restart"}, 2 * time.Second},
		{scenario.Spec{TorrentID: 10, Live: true, Adversary: "liar25"}, 10 * time.Minute},
	} {
		cfg, err := FromSpec(c.sp)
		if err != nil {
			t.Fatal(err)
		}
		var opts client.Options
		cfg.applyResilience(&opts, 1)
		if opts.BanFor != c.banFor {
			t.Errorf("%+v: BanFor %v, want %v", c.sp, opts.BanFor, c.banFor)
		}
		if tight := c.banFor != 0; (opts.DialRetries == 4) != tight || (opts.RequestTimeout == 2*time.Second) != tight {
			t.Errorf("%+v: resilience schedule %+v, tightened=%v", c.sp, opts, tight)
		}
		if (opts.Faults != nil) != (c.sp.Faults != "") {
			t.Errorf("%+v: injector %v", c.sp, opts.Faults)
		}
	}
}

// TestFromSpecRejectsMisfiledPerturbation: the live backend resolves
// perturbations through the same resolver as the simulator, so a catalog
// name under another kind's field, or an unknown name, fails here too.
func TestFromSpecRejectsMisfiledPerturbation(t *testing.T) {
	for _, sp := range []scenario.Spec{
		{TorrentID: 10, Live: true, Faults: "poison25"},
		{TorrentID: 10, Live: true, Crashes: "chaos"},
		{TorrentID: 10, Live: true, Adversary: "kill-restart"},
		{TorrentID: 10, Live: true, Faults: "no-such-plan"},
	} {
		if _, err := FromSpec(sp); err == nil {
			t.Errorf("%+v accepted", sp)
		}
	}
	cfg, err := FromSpec(scenario.Spec{TorrentID: 10, Live: true, Faults: "chaos", Adversary: "poison25", AdversaryNoBan: true})
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Perturbations
	if p.Faults.Name != "chaos" || p.Adversary.Name != "poison25" || !p.AdversaryNoBan || p.Crashes.Enabled() {
		t.Fatalf("perturbations resolved to %+v", p)
	}
}
