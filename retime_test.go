package rarestfirst

// Deferred-retime determinism at the report level: on a lane run, the
// choke rounds of one instant form one batch and the dirty-node retime
// flush that follows it is hundreds of nodes wide, so a full run's report
// must reproduce a fixed digest, recorded when one and eight lane compute
// workers still had to agree on it. CI repeats these under the race
// detector.

import "testing"

// retimeReport runs one scenario and returns its digest plus the raw
// report (for stats assertions).
func retimeReport(t *testing.T, sc Scenario) (string, *Report) {
	t.Helper()
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return reportDigest(t, rep), rep
}

// TestRetimeFlushParallelMatchesSerial pins the digest of a lane run whose
// choke-round instants mark hundreds of nodes dirty at once: the wide
// flush after each batch must re-time exactly as it always has.
func TestRetimeFlushParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	sc := Scenario{
		Label:     "retime-flush-t7",
		TorrentID: 7,
		Scale: Scale{
			MaxPeers:     300,
			MaxContentMB: 16,
			MaxPieces:    64,
			Duration:     600,
			Warmup:       300,
			Seed:         42,
		},
		ChokeLanes:   true,
		SeedOverride: 11,
	}
	got, rep := retimeReport(t, sc)
	if want := "5c029b855dc3668b85a102a1f954cf832274d7b84ff42c2b14a3c263d95b41d0"; got != want {
		t.Errorf("lane digest %s, want %s", got, want)
	}
	// The run must actually have run wide lane batches and followed them
	// with wide flushes, or the test proves nothing.
	if rep.Events.PeakLaneWidth < 64 || rep.Events.PeakShardWidth < 64 {
		t.Fatalf("peak lane batch %d, peak flush width %d: want both >= 64",
			rep.Events.PeakLaneWidth, rep.Events.PeakShardWidth)
	}
}

// TestRetimeReportObservability checks the deferred-retiming counters
// surface through the public report on a plain (non-lane) run, and that
// the pool caps are reported.
func TestRetimeReportObservability(t *testing.T) {
	rep, err := Run(Scenario{Label: "retime-obs", TorrentID: 14, Scale: BenchScale()})
	if err != nil {
		t.Fatal(err)
	}
	ev := rep.Events
	if ev.DirtyFlushes == 0 || ev.RetimeBatches < ev.DirtyFlushes || ev.PeakShardWidth < 2 {
		t.Fatalf("retime stats missing from report: %+v", ev)
	}
	if ev.TimerPoolCap == 0 || ev.FlowPoolCap == 0 {
		t.Fatalf("pool caps missing from report: %+v", ev)
	}
}
