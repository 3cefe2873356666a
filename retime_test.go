package rarestfirst

// Deferred-retime determinism at the report level: a 300-peer run with
// grid-aligned choke rounds, where every grid instant re-times the flows
// of a few hundred rounds one event at a time, must reproduce a fixed
// digest. CI repeats these under the race detector.

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

// TestRetimeFlushParallelMatchesSerial pins the digest of a grid-aligned
// run whose choke-round instants hold hundreds of rounds: the flush after
// each must re-time exactly as it always has. The widest flushes are
// internal/sim's concern (TestRetimeFlushParallelMatchesSerialNet,
// TestWideFlushZeroAlloc).
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
	if want := "2b9a1abeeebd8297f00f667f7455132363fa20007e919a48c3d880ca774df780"; got != want {
		t.Errorf("lane digest %s, want %s", got, want)
	}
	// The run must actually have re-timed flows, or the test proves
	// nothing.
	if rep.Events.DirtyFlushes == 0 || rep.Events.PeakShardWidth < 2 {
		t.Fatalf("%d flushes, peak flush width %d: the run re-timed nothing",
			rep.Events.DirtyFlushes, rep.Events.PeakShardWidth)
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
