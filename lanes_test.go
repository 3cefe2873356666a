package rarestfirst

// Lane-mode determinism at the report level: the parallel choke-round
// lanes (Scenario.ChokeLanes) must produce byte-identical reports whether
// the compute phases run serially or on a worker pool. This is the
// acceptance gate for the intra-swarm sharding path — reportDigest covers
// every derived statistic, so any scheduling leak shows up here.

import (
	"testing"

	"rarestfirst/internal/swarm"
)

// laneDigest runs one lane-mode scenario with an explicit worker count
// and returns its report digest. LaneWorkers is internal scheduling (not
// part of Scenario), so the config is built and overridden directly.
func laneDigest(t *testing.T, sc Scenario, workers int) string {
	t.Helper()
	cfg, spec, err := buildConfig(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LaneWorkers = workers
	res := swarm.New(cfg).Run()
	return reportDigest(t, buildReport(sc, spec, cfg, res))
}

func TestChokeLanesParallelMatchesSerial(t *testing.T) {
	for _, sc := range []Scenario{
		{Label: "lanes-steady-t7", TorrentID: 7, Scale: BenchScale(), ChokeLanes: true, SeedOverride: 5},
		{Label: "lanes-freeride-t14", TorrentID: 14, Scale: BenchScale(), ChokeLanes: true, FreeRiderFraction: 0.2, SeedOverride: 6},
	} {
		serial := laneDigest(t, sc, 1)
		parallel := laneDigest(t, sc, 8)
		if serial != parallel {
			t.Errorf("%s: parallel lane digest %s != serial digest %s", sc.Label, parallel, serial)
		}
		if again := laneDigest(t, sc, 8); again != parallel {
			t.Errorf("%s: parallel lane run not reproducible: %s vs %s", sc.Label, again, parallel)
		}
	}
}

// TestChokeLanesReportObservability checks the lane stats surface through
// the public report, and that non-lane runs keep them zero (so existing
// JSONL serializations are unchanged via omitempty).
func TestChokeLanesReportObservability(t *testing.T) {
	rep, err := Run(Scenario{Label: "lanes-obs", TorrentID: 14, Scale: BenchScale(), ChokeLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events.PeakLaneWidth < 2 || rep.Events.LaneBatches == 0 || rep.Events.LaneEvents == 0 {
		t.Fatalf("lane stats missing from report: %+v", rep.Events)
	}
	plain, err := Run(Scenario{Label: "no-lanes", TorrentID: 14, Scale: BenchScale()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events.PeakLaneWidth != 0 || plain.Events.LaneBatches != 0 || plain.Events.LaneEvents != 0 {
		t.Fatalf("non-lane run reports lane stats: %+v", plain.Events)
	}
}
