package swarm

import (
	"reflect"
	"testing"
)

// crashConfig is tinyConfig with a crash schedule and the invariant
// checker on: every crash run here doubles as an availability-counter
// audit (crash decrements, rejoin re-increments).
func crashConfig(cr *Crashes) Config {
	cfg := tinyConfig()
	cfg.InitialLeechers = 10
	cfg.Crashes = cr
	cfg.Invariants = true
	return cfg
}

// midRunCrashes is the standard test schedule: half the leechers crash
// inside [50, 400) sim-seconds — mid-transfer for tinyConfig's geometry —
// and rejoin after a ~30 s mean downtime.
func midRunCrashes() *Crashes {
	return &Crashes{Frac: 0.5, WindowStart: 50, WindowEnd: 400, MeanDowntime: 30}
}

// crashSweep runs the crash schedule cr over seeds 1-10 and returns the
// fault counters summed over the sweep. Whether one seed leaves a victim
// mid-transfer at its kill instant is luck — some seeds crash nobody — so
// every run must hold the per-seed invariants (the local peer and all 10
// leechers finish, every crash resumes) and the callers assert the crash
// counters only on the sum.
func crashSweep(t *testing.T, cr *Crashes) map[string]int {
	t.Helper()
	sum := map[string]int{}
	for seed := int64(1); seed <= 10; seed++ {
		cfg := crashConfig(cr)
		cfg.Seed = seed
		res := New(cfg).Run()
		fc := res.Collector.FaultCounts
		if !res.LocalCompleted {
			t.Fatalf("seed %d: local peer did not complete: %v", seed, fc)
		}
		if res.FinishedContrib != 10 {
			t.Fatalf("seed %d: finished %d of 10 leechers: %v", seed, res.FinishedContrib, fc)
		}
		if fc["swarm_peer_resume"] != fc["swarm_peer_crash"] {
			t.Fatalf("seed %d: crashes (%d) and resumes (%d) disagree: %v",
				seed, fc["swarm_peer_crash"], fc["swarm_peer_resume"], fc)
		}
		for k, v := range fc {
			sum[k] += v
		}
	}
	return sum
}

func TestCrashPeersRejoinAndComplete(t *testing.T) {
	fc := crashSweep(t, midRunCrashes())
	if fc["swarm_peer_crash"] == 0 || fc["swarm_peer_resume"] == 0 {
		t.Fatalf("no crashes recorded over the sweep: %v", fc)
	}
	// Full retention: victims crash mid-transfer holding pieces, so the
	// rejoins must carry bytes back into the swarm.
	if fc["swarm_resume_bytes_saved"] == 0 {
		t.Fatalf("no resume bytes recorded: %v", fc)
	}
	if fc["swarm_resume_hash_fail"] != 0 {
		t.Fatalf("full-retention crash counted hash failures: %v", fc)
	}
}

func TestCrashAmnesiaStillCompletes(t *testing.T) {
	cr := midRunCrashes()
	cr.RetainFrac = 0.5
	fc := crashSweep(t, cr)
	if fc["swarm_peer_crash"] == 0 || fc["swarm_peer_resume"] == 0 {
		t.Fatalf("crash counters missing over the sweep: %v", fc)
	}
}

func TestCrashCorruptResumeCountsHashFails(t *testing.T) {
	cr := midRunCrashes()
	cr.DropAllFirst = true
	// The corrupted victims re-download from scratch and the torrent
	// still finishes whole on every seed (crashSweep checks that).
	fc := crashSweep(t, cr)
	if fc["swarm_peer_crash"] == 0 || fc["swarm_resume_hash_fail"] == 0 {
		t.Fatalf("corrupt-resume victims counted no hash failures: %v", fc)
	}
}

func TestCrashRunsAreDeterministic(t *testing.T) {
	run := func() (float64, int, map[string]int) {
		res := New(crashConfig(midRunCrashes())).Run()
		return res.LocalDownloadTime, res.FinishedContrib, res.Collector.FaultCounts
	}
	t1, f1, fc1 := run()
	t2, f2, fc2 := run()
	if t1 != t2 || f1 != f2 || !reflect.DeepEqual(fc1, fc2) {
		t.Fatalf("crash runs diverge: (%f,%d,%v) vs (%f,%d,%v)", t1, f1, fc1, t2, f2, fc2)
	}
}

func TestCrashZeroFracKillsNobody(t *testing.T) {
	// A non-nil schedule with Frac 0 draws per-peer scheduling RNG but
	// never fires; no crash counters may appear.
	res := New(crashConfig(&Crashes{Frac: 0, WindowStart: 50, WindowEnd: 400})).Run()
	fc := res.Collector.FaultCounts
	if fc["swarm_peer_crash"] != 0 || fc["swarm_peer_resume"] != 0 {
		t.Fatalf("zero-frac schedule crashed peers: %v", fc)
	}
	if !res.LocalCompleted {
		t.Fatal("local peer did not complete")
	}
}

func TestCrashNilPreservesTrajectory(t *testing.T) {
	// Crashes nil must be invisible: zero extra RNG draws, identical
	// trajectory to a config that never heard of the feature. This is
	// the in-package twin of the repo-level golden digest check.
	base := tinyConfig()
	r1 := New(base).Run()
	withNil := tinyConfig()
	withNil.Crashes = nil
	r2 := New(withNil).Run()
	if r1.LocalDownloadTime != r2.LocalDownloadTime || r1.FinishedContrib != r2.FinishedContrib {
		t.Fatalf("nil crash config perturbed the run: (%f,%d) vs (%f,%d)",
			r1.LocalDownloadTime, r1.FinishedContrib, r2.LocalDownloadTime, r2.FinishedContrib)
	}
	if r1.Collector.FaultCounts != nil {
		t.Fatalf("fault counters on a crash-free run: %v", r1.Collector.FaultCounts)
	}
}

func TestCrashWithChokeLanes(t *testing.T) {
	// The rejoin path re-arms the choke timer through the lane scheduler
	// when ChokeLanes is on; the run must stay consistent and complete.
	cfg := crashConfig(midRunCrashes())
	cfg.ChokeLanes = true
	res := New(cfg).Run()
	if !res.LocalCompleted {
		t.Fatal("local peer did not complete under lanes + crashes")
	}
	if res.Collector.FaultCounts["swarm_peer_crash"] == 0 {
		t.Fatalf("no crashes recorded: %v", res.Collector.FaultCounts)
	}
}
