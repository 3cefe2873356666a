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
			"3af2f9e4d7364c39d9bd94676132ff2ebaed14739050ab525ec5c383177667f9"},
		{Scenario{Label: "lanes-freeride-t14", TorrentID: 14, Scale: BenchScale(), ChokeLanes: true, FreeRiderFraction: 0.2, SeedOverride: 6},
			"776925f00c2e73dda9f3f85b904cadcd0df9b198ff143a2d88d2808dfc0fac5a"},
		{Scenario{Label: "lanes-barrier-t7", TorrentID: 7, Scale: Scale{MaxPeers: 300, MaxContentMB: 16, MaxPieces: 64, Duration: 600, Warmup: 300, Seed: 42}, ChokeLanes: true, SeedOverride: 12},
			"2b121f28a0661bbe5754c2b9b9d681bc9a5131d803782089a3c77a737e8b79c6"},
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
