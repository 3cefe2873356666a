package rarestfirst

// Grid-aligned choke rounds at the report level: Scenario.ChokeLanes puts
// every peer's rounds on the global 10 s grid, and its runs must
// reproduce fixed report digests. reportDigest covers every derived
// statistic, so any scheduling change shows up here. In the 300-peer
// lanes-barrier-t7 row a few hundred rounds share each grid instant.

import (
	"strings"
	"testing"
)

func TestChokeLanesParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Label: "lanes-steady-t7", TorrentID: 7, Scale: BenchScale(), ChokeLanes: true, SeedOverride: 5},
			"37686119256d6c298a96e48412b0019832a80207b99606a12e91516e4b529c3a"},
		{Scenario{Label: "lanes-freeride-t14", TorrentID: 14, Scale: BenchScale(), ChokeLanes: true, FreeRiderFraction: 0.2, SeedOverride: 6},
			"2f85ea4c3c0e840be065ffe95ac65beb1884fd33b1cc08d8e288fc01cff3336d"},
		{Scenario{Label: "lanes-barrier-t7", TorrentID: 7, Scale: Scale{MaxPeers: 300, MaxContentMB: 16, MaxPieces: 64, Duration: 600, Warmup: 300, Seed: 42}, ChokeLanes: true, SeedOverride: 12},
			"f3c9df9a19ebd002e43b55a7eb18f34539577e5bd739fc6d9deaf1e7fdcf30ed"},
	} {
		if got, _ := retimeReport(t, c.sc); got != c.want {
			t.Errorf("%s: lane digest %s, want %s", c.sc.Label, got, c.want)
		}
	}
}

// TestChokeLanesReportObservability checks that a ChokeLanes run reports
// the same scheduler counters as a plain one, and that its JSON line
// carries no lane field: a grid-aligned round is an ordinary event.
func TestChokeLanesReportObservability(t *testing.T) {
	rep, err := Run(Scenario{Label: "lanes-obs", TorrentID: 14, Scale: BenchScale(), ChokeLanes: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := rep.Events
	if ev.DirtyFlushes == 0 || ev.TimersReused == 0 || ev.TimerPoolCap == 0 {
		t.Fatalf("scheduler stats missing from a lane run's report: %+v", ev)
	}
	raw, err := rep.JSONLine()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"Lane`) || strings.Contains(string(raw), `"HaveFlush`) {
		t.Fatalf("report line still carries a lane or HAVE-flush field: %s", raw)
	}
}
