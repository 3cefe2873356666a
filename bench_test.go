package rarestfirst

// Per-artifact benchmarks: one testing.B per table/figure of the paper's
// evaluation section and one per A1-A5 ablation of cmd/experiments. Each
// bench runs the corresponding experiment at BenchScale and reports the
// headline metric of that artifact via b.ReportMetric, so `go test
// -bench=. -benchmem` regenerates the whole evaluation in summary form.
// Timing and per-layer cost are measured by bench/, not here.

import (
	"fmt"
	"testing"

	"rarestfirst/internal/fluidmodel"
	"rarestfirst/internal/swarm"
	"rarestfirst/internal/torrents"
)

// benchRun executes one scenario per benchmark iteration and returns the
// last report.
func benchRun(b *testing.B, sc Scenario) *Report {
	b.Helper()
	if sc.Scale == (Scale{}) {
		sc.Scale = BenchScale()
	}
	var rep *Report
	var err error
	for i := 0; i < b.N; i++ {
		// Vary the seed across iterations so -count/-benchtime sample
		// different swarms while staying reproducible.
		sc.SeedOverride = int64(1000 + i)
		rep, err = Run(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// BenchmarkTableI regenerates Table I: it checks the catalog and reports
// how many of the 26 torrents are runnable end to end at bench scale.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := TableI()
		if len(rows) != 26 {
			b.Fatalf("catalog has %d rows", len(rows))
		}
	}
	b.ReportMetric(26, "torrents")
}

// BenchmarkFig1Entropy reproduces Fig 1 on the two regimes the paper
// contrasts: a steady torrent must show close-to-ideal entropy and a
// transient torrent must not.
func BenchmarkFig1Entropy(b *testing.B) {
	b.Run("steady-t7", func(b *testing.B) {
		rep := benchRun(b, Scenario{TorrentID: 7})
		b.ReportMetric(rep.Entropy.AOverB.P50, "aOverB-p50")
		b.ReportMetric(rep.Entropy.COverD.P50, "cOverD-p50")
	})
	b.Run("transient-t8", func(b *testing.B) {
		rep := benchRun(b, Scenario{TorrentID: 8})
		b.ReportMetric(rep.Entropy.AOverB.P50, "aOverB-p50")
		b.ReportMetric(rep.Entropy.COverD.P50, "cOverD-p50")
	})
}

// BenchmarkFig2TransientReplication reproduces Fig 2 (torrent 8): the
// fraction of samples in which the local peer set was missing at least one
// piece (min copies == 0) — high in transient state.
func BenchmarkFig2TransientReplication(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 8})
	missing, rare := 0, 0
	for _, p := range rep.Availability {
		if p.Min == 0 {
			missing++
		}
		if p.GlobalRare > 0 {
			rare++
		}
	}
	n := float64(len(rep.Availability))
	if n > 0 {
		b.ReportMetric(float64(missing)/n, "frac-samples-min0")
		b.ReportMetric(float64(rare)/n, "frac-samples-rare")
	}
}

// BenchmarkFig3RarestSetTransient reproduces Fig 3 (torrent 8): rare
// pieces drain at the initial seed's constant rate, so the global rare
// count decreases roughly linearly — measured as pieces/hour drained.
func BenchmarkFig3RarestSetTransient(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 8})
	av := rep.Availability
	if len(av) >= 2 {
		d := float64(av[0].GlobalRare - av[len(av)-1].GlobalRare)
		dt := av[len(av)-1].T - av[0].T
		if dt > 0 {
			b.ReportMetric(d/dt*3600, "rare-drained-per-hour")
		}
	}
}

// BenchmarkFig4SteadyReplication reproduces Fig 4 (torrent 7): in steady
// state the least replicated piece always has at least one copy.
func BenchmarkFig4SteadyReplication(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 7})
	ok := 0
	for _, p := range rep.Availability {
		if p.GlobalMin >= 1 {
			ok++
		}
	}
	if n := float64(len(rep.Availability)); n > 0 {
		b.ReportMetric(float64(ok)/n, "frac-samples-min-ge-1")
	}
}

// BenchmarkFig5PeerSetSize reproduces Fig 5 (torrent 7): mean peer set
// size relative to the configured maximum.
func BenchmarkFig5PeerSetSize(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 7})
	sum := 0.0
	for _, p := range rep.Availability {
		sum += float64(p.PeerSet)
	}
	if n := float64(len(rep.Availability)); n > 0 {
		b.ReportMetric(sum/n, "mean-peerset")
	}
}

// BenchmarkFig6RarestSetSawtooth reproduces Fig 6 (torrent 7): the rarest
// set stays small (rarest pieces are duplicated quickly) and jumps with
// peer churn — reported as the mean rarest-set size over the run.
func BenchmarkFig6RarestSetSawtooth(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 7})
	sum, peak := 0.0, 0
	for _, p := range rep.Availability {
		sum += float64(p.RarestSize)
		if p.RarestSize > peak {
			peak = p.RarestSize
		}
	}
	if n := float64(len(rep.Availability)); n > 0 {
		b.ReportMetric(sum/n, "mean-rarest-set")
		b.ReportMetric(float64(peak), "peak-rarest-set")
	}
}

// BenchmarkFig7PieceInterarrival reproduces Fig 7 (torrent 10): the first
// pieces arrive slower than the body (first-pieces problem) while the last
// pieces do not (no last-pieces problem).
func BenchmarkFig7PieceInterarrival(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 10})
	b.ReportMetric(rep.PieceCDF.FirstOverAllP90, "first-vs-all-p90")
	b.ReportMetric(rep.PieceCDF.LastOverAllP90, "last-vs-all-p90")
}

// BenchmarkFig8BlockInterarrival reproduces Fig 8 (torrent 10) at block
// granularity.
func BenchmarkFig8BlockInterarrival(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 10})
	b.ReportMetric(rep.BlockCDF.FirstOverAllP90, "first-vs-all-p90")
	b.ReportMetric(rep.BlockCDF.LastOverAllP90, "last-vs-all-p90")
}

// BenchmarkFig9LeecherFairness reproduces Fig 9 (leecher state): the top
// 5-peer set dominates uploads, and the same peers dominate the local
// peer's downloads (reciprocation).
func BenchmarkFig9LeecherFairness(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 7})
	if len(rep.FairnessUploadLS) > 0 {
		b.ReportMetric(rep.FairnessUploadLS[0], "top5-upload-share")
	}
	if len(rep.FairnessRecipLS) > 0 {
		b.ReportMetric(rep.FairnessRecipLS[0]+rep.FairnessRecipLS[1], "top10-download-share")
	}
}

// BenchmarkFig10UnchokeCorrelation reproduces Fig 10 (torrent 7): seed
// state shows a clear positive correlation between interested time and
// unchoke count; leecher state is driven by rate, not residency.
func BenchmarkFig10UnchokeCorrelation(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 7})
	b.ReportMetric(rep.UnchokeLS.Pearson, "pearson-LS")
	b.ReportMetric(rep.UnchokeSS.Pearson, "pearson-SS")
}

// BenchmarkFig11SeedFairness reproduces Fig 11: the new seed-state
// algorithm gives every 5-peer set roughly the same share (ideal: 1/6 for
// 6 sets).
func BenchmarkFig11SeedFairness(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 7})
	if len(rep.FairnessUploadSS) > 0 {
		b.ReportMetric(rep.FairnessUploadSS[0], "top5-share")
		spread := rep.FairnessUploadSS[0] - rep.FairnessUploadSS[len(rep.FairnessUploadSS)-1]
		b.ReportMetric(spread, "top-minus-bottom")
	}
}

// --- Ablations (A1-A5) ---

// BenchmarkAblationPickerRandomVsRarest (A1): rarest first vs random piece
// selection, compared on swarm mean download time and entropy.
func BenchmarkAblationPickerRandomVsRarest(b *testing.B) {
	for _, picker := range []string{PickerRarestFirst, PickerRandom, PickerSequential, PickerGlobalRarest} {
		b.Run(picker, func(b *testing.B) {
			rep := benchRun(b, Scenario{TorrentID: 10, Picker: picker})
			b.ReportMetric(rep.Entropy.AOverB.P50, "entropy-p50")
			b.ReportMetric(rep.MeanDownloadContrib, "mean-download-s")
		})
	}
}

// BenchmarkAblationSeedChokeOldVsNew (A2): old vs new seed-state algorithm
// with free riders present; the old algorithm lets its top set monopolise
// the seed.
func BenchmarkAblationSeedChokeOldVsNew(b *testing.B) {
	for _, sk := range []string{SeedChokeNew, SeedChokeOld} {
		b.Run(sk, func(b *testing.B) {
			rep := benchRun(b, Scenario{TorrentID: 14, SeedChoke: sk, FreeRiderFraction: 0.2})
			if len(rep.FairnessUploadSS) > 0 {
				b.ReportMetric(rep.FairnessUploadSS[0], "ss-top5-share")
			}
			b.ReportMetric(rep.MeanDownloadFree, "free-mean-s")
		})
	}
}

// BenchmarkAblationTitForTat (A3): bit-level tit-for-tat strands excess
// capacity. The decisive metric is local-download-s: the instrumented peer
// uploads at only 20 kB/s, and under tit-for-tat it cannot use the swarm's
// excess capacity even though contributors are fine (§IV-B.1).
func BenchmarkAblationTitForTat(b *testing.B) {
	for _, lk := range []string{LeecherChokeStandard, LeecherChokeTitForTat} {
		b.Run(lk, func(b *testing.B) {
			rep := benchRun(b, Scenario{TorrentID: 14, LeecherChoke: lk})
			b.ReportMetric(rep.MeanDownloadContrib, "mean-download-s")
			b.ReportMetric(rep.LocalDownloadSeconds, "local-download-s")
		})
	}
}

// BenchmarkAblationCodingTransient (A4): duplicate pieces served by the
// initial seed during the startup phase, with and without the idealized
// coding/super-seeding policy (§IV-A.4).
func BenchmarkAblationCodingTransient(b *testing.B) {
	for _, smart := range []bool{false, true} {
		name := "client-pick"
		if smart {
			name = "smart-serve"
		}
		b.Run(name, func(b *testing.B) {
			rep := benchRun(b, Scenario{TorrentID: 8, SmartSeedServe: smart})
			frac := 0.0
			if rep.SeedServes > 0 {
				frac = float64(rep.DupSeedServes) / float64(rep.SeedServes)
			}
			b.ReportMetric(frac, "dup-serve-frac")
			b.ReportMetric(float64(rep.SeedServes), "serves")
		})
	}
}

// BenchmarkAblationFreeRiders (A5): free riders are penalized but the
// system stays viable as their share grows.
func BenchmarkAblationFreeRiders(b *testing.B) {
	for _, frac := range []float64{0.1, 0.3, 0.5} {
		b.Run(fmt.Sprintf("frac-%.0f%%", frac*100), func(b *testing.B) {
			rep := benchRun(b, Scenario{TorrentID: 14, FreeRiderFraction: frac})
			penalty := 0.0
			if rep.MeanDownloadContrib > 0 && rep.MeanDownloadFree > 0 {
				penalty = rep.MeanDownloadFree / rep.MeanDownloadContrib
			}
			b.ReportMetric(penalty, "free-rider-penalty")
			b.ReportMetric(rep.MeanDownloadContrib, "contrib-mean-s")
		})
	}
}

// --- Extensions (paper §VI future-work directions) ---

// BenchmarkExtensionNewcomerBoost measures the §VI improvement direction
// "the time to deliver the first blocks of data should be reduced": the
// exploratory unchoke slots (OU/SRU) prefer piece-less peers. Reported:
// the local peer's first-block and first-piece latency after joining.
func BenchmarkExtensionNewcomerBoost(b *testing.B) {
	for _, boost := range []bool{false, true} {
		name := "baseline"
		if boost {
			name = "boost"
		}
		b.Run(name, func(b *testing.B) {
			rep := benchRun(b, Scenario{TorrentID: 7, BoostNewcomers: boost})
			b.ReportMetric(rep.FirstBlockSeconds, "first-block-s")
			b.ReportMetric(rep.FirstPieceSeconds, "first-piece-s")
		})
	}
}

// BenchmarkExtensionSeedFailure injects the §II-B liveness failure: the
// initial seed departs mid-startup, leaving rare pieces unobtainable.
// Reported: fraction of leechers that still completed (should be ~0) and
// the global rare count at the end.
func BenchmarkExtensionSeedFailure(b *testing.B) {
	rep := benchRun(b, Scenario{TorrentID: 8, InitialSeedLeavesAt: 200})
	total := rep.FinishedContrib + rep.FinishedFree
	b.ReportMetric(float64(total), "completions")
	if len(rep.Availability) > 0 {
		b.ReportMetric(float64(rep.Availability[len(rep.Availability)-1].GlobalRare), "end-global-rare")
	}
}

// BenchmarkModelVsSim (V1): cross-validation of the simulator against the
// Qiu-Srikant fluid model (§V). Reports the ratio of simulated mean
// download time to the model's global-knowledge optimum — close to 1
// means local knowledge costs little, the paper's core message.
func BenchmarkModelVsSim(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sc := torrents.BenchScale()
		sc.Seed = int64(1000 + i)
		sc.Duration = 2400
		spec, _ := torrents.ByID(14)
		cfg := spec.Config(sc)
		res := swarm.New(cfg).Run()
		if res.FinishedContrib == 0 {
			b.Fatal("no completions")
		}
		bytes := int64(cfg.NumPieces) * int64(cfg.PieceSize)
		var meanUp, w float64
		for _, cl := range swarm.DefaultCapacityMix() {
			meanUp += cl.Fraction * cl.UpBps
			w += cl.Fraction
		}
		p := fluidmodel.FromSwarm(cfg.ArrivalRate, cfg.AbortRate, 1/cfg.SeedLingerMean,
			meanUp/w, 0, bytes, 1)
		modelT, err := p.MeanDownloadTime(1e6, 1e-9)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.MeanDownloadContrib / modelT
	}
	b.ReportMetric(ratio, "sim-over-model")
}
