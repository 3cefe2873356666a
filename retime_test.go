package rarestfirst

// Deferred-retime determinism at the report level: on a lane run, the
// choke rounds of one instant fan across the lane worker pool and the
// dirty-node retime flush that follows them is hundreds of nodes wide, so
// a full run's report must be byte-identical whether that pool has one
// worker or many. CI repeats these under the race detector.

import (
	"testing"

	"rarestfirst/internal/swarm"
)

// retimeReport runs one scenario with an explicit worker count and
// returns the digest plus the raw report (for stats assertions).
func retimeReport(t *testing.T, sc Scenario, workers int) (string, *Report) {
	t.Helper()
	cfg, spec, err := sc.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.LaneWorkers = workers
	res := swarm.New(cfg).Run()
	rep := buildReport(sc, spec, cfg, res)
	return reportDigest(t, rep), rep
}

// TestRetimeFlushParallelMatchesSerial pins the worker-count invariance
// of a lane run whose choke-round instants mark hundreds of nodes dirty at
// once: the lane compute pool runs those rounds on 8 workers, and the wide
// flush after each batch must re-time exactly as after a serial batch.
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
	serial, srep := retimeReport(t, sc, 1)
	parallel, prep := retimeReport(t, sc, 8)
	if serial != parallel {
		t.Errorf("8-worker lane digest %s != serial digest %s", parallel, serial)
	}
	if again, _ := retimeReport(t, sc, 8); again != parallel {
		t.Errorf("8-worker lane run not reproducible: %s vs %s", again, parallel)
	}
	// The run must actually have fanned wide lane batches and followed
	// them with wide flushes, or the test proves nothing.
	for _, rep := range []*Report{srep, prep} {
		if rep.Events.PeakLaneWidth < 64 || rep.Events.PeakShardWidth < 64 {
			t.Fatalf("peak lane batch %d, peak flush width %d: want both >= 64",
				rep.Events.PeakLaneWidth, rep.Events.PeakShardWidth)
		}
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
