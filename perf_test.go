package rarestfirst

import "testing"

// TestFlashCrowdAllocsPerArrival guards the simulator's per-arrival heap
// cost on a small cut of the flash crowd bench/'s sim-flashcrowd runs
// (torrent 8, grid-aligned rounds, churn 5, 300 peers, about a thousand
// arrivals). A join carves its peer, timers and flows from blocks and
// binds no closure, so the whole run, report included, makes 1.44
// allocations per arrival (1535 for 1069 arrivals); when every join still
// allocated its peer, a bound choke round, an abort closure and fresh
// timers, it made 7.01 (7490). The bound was fixed from those two
// measurements before the assertion was written.
func TestFlashCrowdAllocsPerArrival(t *testing.T) {
	sc := FlashCrowd20kScenario()
	sc.Scale.MaxPeers = 300
	sc.ChurnScale = 5
	sc.SeedOverride = 1000
	var rep *Report
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if rep, err = Run(sc); err != nil {
			t.Fatal(err)
		}
	})
	perArrival := allocs / float64(rep.Arrivals)
	t.Logf("%.0f allocations for %d arrivals: %.2f per arrival", allocs, rep.Arrivals, perArrival)
	if perArrival > 2 {
		t.Fatalf("%.2f allocations per arrival, want at most 2", perArrival)
	}
}
