package rarestfirst

// Crash-recovery acceptance tests: the crash-* registry families must
// survive SIGKILLed peers mid-transfer on BOTH backends. Determinism is
// asserted strictly on the sim twin (every crash/rejoin draw comes from
// the engine RNG, so same-seed runs are digest-identical); the live side
// is asserted up to schedule determinism — the kill schedule replays under
// a fixed seed, real-TCP timing does not.

import (
	"reflect"
	"strings"
	"testing"
)

// TestCrashSimDeterministic: two same-seed runs of the crash sim spec must
// produce digest-identical reports with nonzero crash counters.
func TestCrashSimDeterministic(t *testing.T) {
	sc := Scenario{
		TorrentID: 8,
		Crashes:   "flashcrowd-kill",
		// Duration 60 matters: the sim staggers initial joins over the
		// first 30 sim-seconds, so the crash window (a fraction of the
		// deadline) must stretch past the stagger for kills to land.
		Scale:        Scale{MaxPeers: 8, MaxContentMB: 1, MaxPieces: 32, Duration: 60},
		SeedOverride: 42,
	}
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := reportDigest(t, r1), reportDigest(t, r2); d1 != d2 {
		t.Fatalf("same-seed crash runs differ: %s vs %s", d1, d2)
	}
	if r1.Faults["swarm_peer_crash"] == 0 || r1.Faults["swarm_peer_resume"] == 0 {
		t.Fatalf("crash counters missing: %v", r1.Faults)
	}
	if r1.Faults["swarm_peer_crash"] != r1.Faults["swarm_peer_resume"] {
		t.Fatalf("crashes and resumes disagree: %v", r1.Faults)
	}

	// A different seed reshuffles the kill schedule and the trajectory.
	sc.SeedOverride = 43
	r3, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Faults, r3.Faults) && r1.LocalDownloadSeconds == r3.LocalDownloadSeconds {
		t.Errorf("different seeds produced identical crash trajectories")
	}
}

// TestCrashPlanValidation: an unknown crash plan must fail loudly on both
// backends' config paths.
func TestCrashPlanValidation(t *testing.T) {
	_, err := Run(Scenario{TorrentID: 8, Crashes: "no-such-plan"})
	if err == nil || !strings.Contains(err.Error(), "no-such-plan") {
		t.Fatalf("unknown crash plan accepted: %v", err)
	}
	_, err = Run(Scenario{TorrentID: 8, Crashes: "no-such-plan", Live: true})
	if err == nil || !strings.Contains(err.Error(), "no-such-plan") {
		t.Fatalf("live backend accepted unknown crash plan: %v", err)
	}
}

// TestCrashSuiteEndToEnd drives the crash-flashcrowd family through
// RunSuite: half the non-instrumented leechers are SIGKILLed mid-transfer
// and restarted from durable resume state — on the simulator and on real
// TCP loopback — and both land in the cross-validation table.
func TestCrashSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("crash loopback swarm takes tens of seconds")
	}
	t.Parallel()
	suite, err := NewSuite("crash-flashcrowd", SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range suite.Scenarios {
		if sc.Crashes != "flashcrowd-kill" {
			t.Fatalf("scenario %d carries crash plan %q, want \"flashcrowd-kill\"", i, sc.Crashes)
		}
	}

	sr, err := Runner{}.RunSuite(suite)
	if err != nil {
		t.Fatal(err)
	}
	var liveRep *Report
	for i, rep := range sr.Reports {
		if rep == nil {
			t.Fatalf("crash scenario %d produced no report", i)
		}
		if len(rep.Faults) == 0 {
			t.Errorf("crash run %d (live=%v) reported no fault counters", i, rep.Scenario.Live)
		}
		if rep.Scenario.Live {
			liveRep = rep
		}
	}
	if liveRep == nil {
		t.Fatal("no live report in the crash suite")
	}

	// Live acceptance: with the flashcrowd-kill plan, at least a quarter
	// of the leechers were killed mid-transfer and restarted...
	leechers := liveRep.Arrivals
	killed := liveRep.Faults["peer_crash"]
	restarted := liveRep.Faults["peer_resume"]
	if killed*4 < leechers {
		t.Errorf("only %d of %d leechers killed, want >= 25%%", killed, leechers)
	}
	if restarted != killed {
		t.Errorf("killed %d but restarted %d", killed, restarted)
	}
	// ...every restarted peer completed (the restart voids the victim's
	// pre-kill completion, so FinishedContrib counts post-restart
	// completions), and the local instrumented peer was never a victim.
	if liveRep.FinishedContrib != leechers-1 {
		t.Errorf("finished %d of %d non-local leechers after restarts", liveRep.FinishedContrib, leechers-1)
	}
	if !liveRep.LocalCompleted {
		t.Error("instrumented local peer did not complete")
	}
	// ...resume state did real work, and the corrupted-resume victim's
	// claims all failed their re-hash (then re-downloaded to completion).
	if liveRep.Faults["resume_bytes_saved"] == 0 {
		t.Errorf("no resume bytes saved across restarts: %v", liveRep.Faults)
	}
	if liveRep.Faults["resume_hash_fail"] == 0 {
		t.Errorf("corrupted resume counted no hash failures: %v", liveRep.Faults)
	}

	if len(sr.CrossValidation) != 1 {
		t.Fatalf("want 1 cross-validation pair, got %d", len(sr.CrossValidation))
	}
	pair := sr.CrossValidation[0]
	if pair.Sim.Live || !pair.Live.Live || pair.Sim.Label != pair.Live.Label {
		t.Fatalf("cross-validation pair malformed: %+v", pair)
	}
	if pair.Sim.Faults["swarm_peer_crash"] == 0 {
		t.Fatalf("sim twin recorded no crashes: %v", pair.Sim.Faults)
	}
}
