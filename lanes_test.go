package rarestfirst

// Lane-mode determinism at the report level: the choke-round lanes
// (Scenario.ChokeLanes) must reproduce fixed report digests. Each was
// recorded when one and eight lane compute workers still had to
// agree on it, so the serial batch is pinned to the schedule every worker
// count produced. reportDigest covers every derived statistic, so any
// scheduling change shows up here.

import "testing"

func TestChokeLanesParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Label: "lanes-steady-t7", TorrentID: 7, Scale: BenchScale(), ChokeLanes: true, SeedOverride: 5},
			"d76fd432ccb8183c57bd76f2b2239143b20c09f37a3f98af30034a77f10c66ac"},
		{Scenario{Label: "lanes-freeride-t14", TorrentID: 14, Scale: BenchScale(), ChokeLanes: true, FreeRiderFraction: 0.2, SeedOverride: 6},
			"46053b542dc0b46c1b771a95b298331b7eb9fb86ed70d5f229087be09b161e85"},
	} {
		if got, _ := retimeReport(t, c.sc); got != c.want {
			t.Errorf("%s: lane digest %s, want %s", c.sc.Label, got, c.want)
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
