// Command experiments regenerates every table and figure of the paper's
// evaluation section (Table I, Figs 1-11) plus the ablations A1-A5 (see
// the README "Scenario catalog"), writing one plain-text artifact per
// experiment. All sweeps fan out across a core-bounded worker pool (the
// runs are independent deterministic simulations), so wall-clock time is
// bound by cores, not by a single goroutine; results are identical to
// serial execution.
//
// Usage:
//
//	experiments [-scale default|bench] [-torrents all|7,8,10] [-seeds 1,2,3]
//	            [-workers N] [-suite name] [-live] [-list] [-skip-ablations]
//	            [-perturb name,...] [-out results] [-json runs.jsonl]
//	            [-progress 10s] [-metrics metrics.jsonl]
//
// Without -scale, every suite runs at its own scale. With -seeds, every
// configuration repeats once per RNG seed and aggregates.txt reports
// mean/stddev over the repeats. With -suite, only the named scenario
// suite runs (-list shows the catalog); -perturb adds faults, crashes or
// adversaries to it (applyPerturb). With -live,
// every live-* scenario family runs instead: real-TCP loopback swarms
// next to their simulator twins, with a sim-vs-live cross-validation
// section per suite. With -json, every executed run additionally appends
// one JSON line (the complete Report) to the given file, followed by one
// Kind="aggregate" line per suite configuration — the machine-readable
// sink external plotting consumes without parsing the text tables. Every
// sim run is deterministic given its seed; live runs are deterministic in
// everything but real-TCP timing.
//
// With -progress, a heartbeat line (elapsed wall time, runs finished,
// events fired, arrivals) prints to stderr every
// interval, so long batches like huge-swarm narrate themselves. With
// -metrics, the process-wide obs registry is sampled on the same cadence
// (default 5s) into a JSONL time series. Both flags activate the runtime
// observability layer (internal/obs); it is off otherwise, and either way
// run results are byte-identical — metrics are observe-only.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rarestfirst"
	"rarestfirst/internal/cliutil"
	"rarestfirst/internal/obs"
	"rarestfirst/internal/scenario"
)

func main() {
	scaleName := flag.String("scale", "", "experiment scale: default or bench (empty = each suite's own scale)")
	torrentList := flag.String("torrents", "all", "comma-separated Table I ids, or 'all'")
	outDir := flag.String("out", "results", "output directory")
	skipAblations := flag.Bool("skip-ablations", false, "skip the A1-A5 ablation runs")
	seedList := flag.String("seeds", "", "comma-separated RNG seeds for multi-seed repeats (empty = catalog seed)")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = NumCPU)")
	suiteName := flag.String("suite", "", "run only this scenario suite (see -list)")
	liveOnly := flag.Bool("live", false, "run the live-* and chaos-* families: real-TCP loopback swarms vs their sim twins")
	list := flag.Bool("list", false, "list the registered scenario suites and exit")
	jsonPath := flag.String("json", "", "also write one JSON line per run to this file")
	perturbList := flag.String("perturb", "", "comma-separated perturbations, at most one per kind ("+scenario.PerturbCatalog()+"); each fills its kind in every scenario that has none")
	progress := flag.Duration("progress", 0, "emit a heartbeat line (elapsed, runs, events fired, arrivals) every interval")
	metricsPath := flag.String("metrics", "", "sample the obs registry into this JSONL time-series file (cadence: -progress interval, default 5s)")
	flag.Parse()

	if *list {
		cliutil.PrintSuites(os.Stdout)
		return
	}

	scale, err := cliutil.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// ids == nil means "all": the catalog default. Keeping the sentinel
	// (instead of expanding to 1..26 here) lets -suite runs distinguish
	// an explicit selection from the default.
	ids, err := cliutil.ParseTorrents(*torrentList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	seeds, err := cliutil.ParseSeeds(*seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *liveOnly && (*suiteName != "" || *torrentList != "all") {
		fmt.Fprintln(os.Stderr, "-live runs the whole live-*/chaos-* family; it cannot be combined with -suite or -torrents")
		os.Exit(2)
	}
	var perturb rarestfirst.Scenario
	if *perturbList != "" {
		if perturb, err = parsePerturb(*perturbList); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *suiteName == "" && !*liveOnly {
			fmt.Fprintln(os.Stderr, "-perturb applies to registry scenarios; combine it with -suite or -live")
			os.Exit(2)
		}
	}

	// -progress and -metrics both need the runtime observability layer:
	// install the process-wide registry before any swarm is built so
	// every layer caches live handles.
	if *progress > 0 || *metricsPath != "" {
		obs.SetDefault(obs.NewRegistry())
	}
	var stopMetrics func() error
	var metricsFile *os.File
	if *metricsPath != "" {
		metricsFile, err = os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cadence := *progress
		if cadence <= 0 {
			cadence = 5 * time.Second
		}
		stopMetrics = cliutil.StartMetricsJSONL(metricsFile, obs.Active(), cadence)
	}

	runner := rarestfirst.Runner{Workers: *workers, Heartbeat: *progress}
	sink := &jsonSink{path: *jsonPath}
	if *liveOnly {
		for _, name := range rarestfirst.SuiteNames() {
			if !strings.HasPrefix(name, "live-") && !strings.HasPrefix(name, "chaos-") &&
				!strings.HasPrefix(name, "adv-") && !strings.HasPrefix(name, "crash-") {
				continue
			}
			// Live suites carry their own wall-clock scales; only the
			// seed fan-out applies.
			if err = runSuite(*outDir, runner, name, rarestfirst.SuiteOptions{Seeds: seeds}, perturb, sink); err != nil {
				break
			}
		}
	} else if *suiteName != "" {
		err = runSuite(*outDir, runner, *suiteName, rarestfirst.SuiteOptions{
			Scale: scale, Seeds: seeds, Torrents: ids,
		}, perturb, sink)
	} else {
		err = run(*outDir, runner, scale, ids, seeds, !*skipAblations, sink)
	}
	if err == nil {
		err = sink.flush()
	}
	if stopMetrics != nil {
		if merr := stopMetrics(); err == nil {
			err = merr
		}
		if cerr := metricsFile.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsPath)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// jsonSink streams every executed run's report to the -json JSONL file as
// each sweep batch completes, so a failure mid-process keeps the lines
// already written. With no path configured it is a no-op.
type jsonSink struct {
	path string
	f    *os.File
	runs int
	err  error
}

// ensureOpen lazily creates the sink file; false means "skip" (no sink
// configured, a previous error, or the create itself failed).
func (s *jsonSink) ensureOpen() bool {
	if s.path == "" || s.err != nil {
		return false
	}
	if s.f == nil {
		s.f, s.err = os.Create(s.path)
	}
	return s.err == nil
}

func (s *jsonSink) add(reports ...*rarestfirst.Report) {
	if !s.ensureOpen() {
		return
	}
	if s.err = cliutil.WriteReportsJSONL(s.f, reports); s.err != nil {
		return
	}
	for _, rep := range reports {
		if rep != nil {
			s.runs++
		}
	}
}

// addAggregates appends the suite's Kind="aggregate" lines after its runs.
func (s *jsonSink) addAggregates(suite string, aggs []rarestfirst.Aggregate) {
	if len(aggs) == 0 || !s.ensureOpen() {
		return
	}
	s.err = cliutil.WriteAggregatesJSONL(s.f, suite, aggs)
}

func (s *jsonSink) flush() error {
	if s.f != nil {
		if err := s.f.Close(); s.err == nil {
			s.err = err
		}
	}
	if s.path != "" && s.err == nil {
		fmt.Fprintf(os.Stderr, "wrote %s (%d runs)\n", s.path, s.runs)
	}
	return s.err
}

// parsePerturb reads a -perturb list into a scenario that names one
// perturbation per kind it was given. A name in no catalog, or a second
// name of a kind, is an error.
func parsePerturb(list string) (rarestfirst.Scenario, error) {
	var with rarestfirst.Scenario
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		kind, ok := scenario.KindOf(name)
		if !ok {
			return rarestfirst.Scenario{}, fmt.Errorf("-perturb: unknown perturbation %q (have %s)", name, scenario.PerturbCatalog())
		}
		field := with.Perturbation(kind)
		if *field != "" {
			return rarestfirst.Scenario{}, fmt.Errorf("-perturb: %q and %q are both %s", *field, name, kind)
		}
		*field = name
	}
	return with, nil
}

// applyPerturb fills each kind that with names into every scenario that
// has none of that kind, so -perturb chaos turns any registry family into
// its chaos variant without clobbering the chaos-* suites' built-in plans.
func applyPerturb(scs []rarestfirst.Scenario, with rarestfirst.Scenario) {
	for i := range scs {
		for _, k := range scenario.Kinds {
			if field := scs[i].Perturbation(k); *field == "" {
				*field = *with.Perturbation(k)
			}
		}
	}
}

// runSuite runs one named scenario suite, with the -perturb names applied
// (applyPerturb), and writes its aggregate table plus every per-run
// report. A nil o.Torrents (the -torrents default) leaves the suite's own
// torrent selection in place.
func runSuite(outDir string, runner rarestfirst.Runner, name string, o rarestfirst.SuiteOptions, perturb rarestfirst.Scenario, sink *jsonSink) error {
	suite, err := rarestfirst.NewSuite(name, o)
	if err != nil {
		return err
	}
	applyPerturb(suite.Scenarios, perturb)
	fmt.Fprintf(os.Stderr, "suite %s: %d scenarios...\n", suite.Name, len(suite.Scenarios))
	// Per-suite peak-heap watermark (internal/obs). The GC it runs at start
	// scopes the watermark to this suite rather than a predecessor's
	// uncollected garbage.
	wm := obs.StartMemWatermark(0, obs.Active())
	sr, err := runner.RunSuite(suite)
	wm.Stop()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "suite %s: peak heap %.1f MB\n", suite.Name, float64(wm.PeakHeapBytes())/(1<<20))
	sink.add(sr.Reports...)
	sink.addAggregates(sr.Name, sr.Aggregates)
	return withFile(outDir, "suite_"+name+".txt", func(w io.Writer) error {
		sr.WriteText(w)
		for _, rep := range sr.Reports {
			fmt.Fprintln(w)
			rep.WriteText(w)
		}
		return nil
	})
}

func run(outDir string, runner rarestfirst.Runner, scale rarestfirst.Scale, ids []int, seeds []int64, ablations bool, sink *jsonSink) error {
	if ids == nil {
		ids = make([]int, 26)
		for i := range ids {
			ids[i] = i + 1
		}
	}
	// Table I: the catalog itself.
	if err := withFile(outDir, "tableI.txt", writeTableI); err != nil {
		return err
	}

	// One full instrumented run per requested torrent (times the seed
	// repeats), fanned across the worker pool.
	catalog, err := rarestfirst.NewSuite("catalog", rarestfirst.SuiteOptions{
		Scale: scale, Seeds: seeds, Torrents: ids,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "catalog sweep: %d torrents x %d seeds...\n", len(ids), max(1, len(seeds)))
	wm := obs.StartMemWatermark(0, obs.Active())
	sr, err := runner.RunSuite(catalog)
	wm.Stop()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "catalog sweep: peak heap %.1f MB\n", float64(wm.PeakHeapBytes())/(1<<20))
	sink.add(sr.Reports...)
	sink.addAggregates(sr.Name, sr.Aggregates)

	// The figure files use the first seed's run of each torrent — the
	// same artifacts a serial single-seed sweep produces.
	repeats := max(1, len(seeds))
	reports := map[int]*rarestfirst.Report{}
	for i, id := range ids {
		reports[id] = sr.Reports[i*repeats]
	}
	for _, id := range ids {
		rep := reports[id]
		name := fmt.Sprintf("torrent%02d.txt", id)
		if err := withFile(outDir, name, func(w io.Writer) error {
			rep.WriteText(w)
			return nil
		}); err != nil {
			return err
		}
	}

	// Cross-seed aggregates (mean/stddev over repeats).
	if repeats > 1 {
		if err := withFile(outDir, "aggregates.txt", func(w io.Writer) error {
			sr.WriteText(w)
			return nil
		}); err != nil {
			return err
		}
	}

	// Fig 1: entropy summary across torrents.
	if err := withFile(outDir, "fig1_entropy.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "# Fig 1: entropy characterization (percentiles of interest-time ratios)\n")
		fmt.Fprintf(w, "# id  state      n   a/b p20  p50  p80 |  c/d p20  p50  p80\n")
		for _, id := range ids {
			r := reports[id]
			fmt.Fprintf(w, "%4d  %-9s %4d  %7.3f %5.3f %5.3f | %8.3f %5.3f %5.3f\n",
				id, r.State, r.Entropy.AOverB.N,
				r.Entropy.AOverB.P20, r.Entropy.AOverB.P50, r.Entropy.AOverB.P80,
				r.Entropy.COverD.P20, r.Entropy.COverD.P50, r.Entropy.COverD.P80)
		}
		return nil
	}); err != nil {
		return err
	}

	// Figs 2-3 (torrent 8, transient) and 4-6 (torrent 7, steady) series;
	// Figs 7-8 (torrent 10) CDFs; 9-11 fairness/correlation per torrent.
	series := func(id int, name, header string) error {
		r := reports[id]
		if r == nil {
			return nil
		}
		return withFile(outDir, name, func(w io.Writer) error {
			fmt.Fprintln(w, header)
			fmt.Fprintf(w, "# t(s)  min  mean  max  rarest  peerset  globalrare\n")
			for _, p := range r.Availability {
				fmt.Fprintf(w, "%8.0f %4d %7.2f %4d %6d %6d %6d\n",
					p.T, p.Min, p.Mean, p.Max, p.RarestSize, p.PeerSet, p.GlobalRare)
			}
			return nil
		})
	}
	if err := series(8, "fig2_fig3_torrent8.txt",
		"# Figs 2-3: piece replication + rarest-set size, torrent 8 (transient)"); err != nil {
		return err
	}
	if err := series(7, "fig4_fig5_fig6_torrent7.txt",
		"# Figs 4-6: piece replication, peer set size, rarest-set size, torrent 7 (steady)"); err != nil {
		return err
	}
	if r := reports[10]; r != nil {
		if err := withFile(outDir, "fig7_fig8_torrent10.txt", func(w io.Writer) error {
			fmt.Fprintf(w, "# Figs 7-8: interarrival CDF summaries, torrent 10\n")
			fmt.Fprintf(w, "pieces: n=%d p50(all/first/last)=%.2f/%.2f/%.2f p90=%.2f/%.2f/%.2f first-vs-all(p90)=%.2fx last-vs-all=%.2fx\n",
				r.PieceCDF.N, r.PieceCDF.AllP50, r.PieceCDF.FirstP50, r.PieceCDF.LastP50,
				r.PieceCDF.AllP90, r.PieceCDF.FirstP90, r.PieceCDF.LastP90,
				r.PieceCDF.FirstOverAllP90, r.PieceCDF.LastOverAllP90)
			fmt.Fprintf(w, "blocks: n=%d p50(all/first/last)=%.2f/%.2f/%.2f p90=%.2f/%.2f/%.2f first-vs-all(p90)=%.2fx last-vs-all=%.2fx\n",
				r.BlockCDF.N, r.BlockCDF.AllP50, r.BlockCDF.FirstP50, r.BlockCDF.LastP50,
				r.BlockCDF.AllP90, r.BlockCDF.FirstP90, r.BlockCDF.LastP90,
				r.BlockCDF.FirstOverAllP90, r.BlockCDF.LastOverAllP90)
			return nil
		}); err != nil {
			return err
		}
	}
	if err := withFile(outDir, "fig9_fig11_fairness.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "# Figs 9+11: upload contribution of 5-peer sets (ranked by received bytes)\n")
		fmt.Fprintf(w, "# id  LS upload shares | LS download shares (same sets) | SS upload shares\n")
		for _, id := range ids {
			r := reports[id]
			fmt.Fprintf(w, "%4d  %s | %s | %s\n", id,
				sharesStr(r.FairnessUploadLS), sharesStr(r.FairnessRecipLS), sharesStr(r.FairnessUploadSS))
		}
		return nil
	}); err != nil {
		return err
	}
	if err := withFile(outDir, "fig10_unchokes.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "# Fig 10: unchoke count vs interested time (Pearson r), per torrent\n")
		fmt.Fprintf(w, "# id   LS: n      r   max | SS: n      r   max\n")
		for _, id := range ids {
			r := reports[id]
			fmt.Fprintf(w, "%4d  %6d %6.3f %5d | %6d %6.3f %5d\n", id,
				r.UnchokeLS.N, r.UnchokeLS.Pearson, r.UnchokeLS.MaxUnch,
				r.UnchokeSS.N, r.UnchokeSS.Pearson, r.UnchokeSS.MaxUnch)
		}
		return nil
	}); err != nil {
		return err
	}

	if !ablations {
		return nil
	}
	return runAblations(outDir, runner, scale, sink)
}

func sharesStr(shares []float64) string {
	if len(shares) == 0 {
		return "-"
	}
	parts := make([]string, len(shares))
	for i, v := range shares {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return strings.Join(parts, " ")
}

func writeTableI(w io.Writer) error {
	fmt.Fprintf(w, "# Table I: torrent characteristics (paper values)\n")
	fmt.Fprintf(w, "# id  seeds  leechers    ratio  maxPS  sizeMB  state\n")
	for _, t := range rarestfirst.TableI() {
		fmt.Fprintf(w, "%4d %6d %9d %8.5f %6d %7d  %s\n",
			t.ID, t.Seeds, t.Leechers, t.Ratio, t.MaxPS, t.SizeMB, t.State)
	}
	return nil
}

// runAblations executes A1-A5 on representative torrents. Every grid is a
// registered scenario suite; all grids run through ONE worker-pool batch,
// then each section is formatted from its slice of the ordered results.
func runAblations(outDir string, runner rarestfirst.Runner, scale rarestfirst.Scale, sink *jsonSink) error {
	names := []string{"pickers", "pickers-startup", "seed-choke", "leecher-choke", "smart-seed", "freerider-sweep"}
	var all []rarestfirst.Scenario
	offsets := map[string][2]int{} // name -> [start, end) in all
	for _, name := range names {
		s, err := rarestfirst.NewSuite(name, rarestfirst.SuiteOptions{Scale: scale})
		if err != nil {
			return err
		}
		offsets[name] = [2]int{len(all), len(all) + len(s.Scenarios)}
		all = append(all, s.Scenarios...)
	}
	fmt.Fprintf(os.Stderr, "ablations: %d scenarios across %d suites...\n", len(all), len(names))
	reports, err := runner.Run(all)
	if err != nil {
		return err
	}
	sink.add(reports...)
	section := func(name string) []*rarestfirst.Report {
		off := offsets[name]
		return reports[off[0]:off[1]]
	}

	return withFile(outDir, "ablations.txt", func(w io.Writer) error {
		// A1: rarest first vs random vs sequential piece selection on the
		// steady single-seed torrent 10.
		fmt.Fprintf(w, "# A1: piece selection strategies, torrent 10\n")
		fmt.Fprintf(w, "# picker         entropy-a/b-p50  entropy-c/d-p50  mean-download(s)  local(s)\n")
		for _, rep := range section("pickers") {
			fmt.Fprintf(w, "%-16s %15.3f %16.3f %17.0f %9.0f\n",
				orDefault(rep.Scenario.Picker, rarestfirst.PickerRarestFirst),
				rep.Entropy.AOverB.P50, rep.Entropy.COverD.P50,
				rep.MeanDownloadContrib, rep.LocalDownloadSeconds)
		}

		// A1b: the same pickers on a torrent in STARTUP phase, where piece
		// scarcity is the binding constraint (§IV-A.2.a: rarest first
		// "minimizes the time spent in transient state").
		fmt.Fprintf(w, "\n# A1b: piece selection during startup, torrent 8 (transient)\n")
		fmt.Fprintf(w, "# picker         rare-drained  dup-serve-frac  mean-copies-end\n")
		for _, rep := range section("pickers-startup") {
			drained, meanEnd := 0, 0.0
			if av := rep.Availability; len(av) > 1 {
				drained = av[0].GlobalRare - av[len(av)-1].GlobalRare
				meanEnd = av[len(av)-1].Mean
			}
			frac := 0.0
			if rep.SeedServes > 0 {
				frac = float64(rep.DupSeedServes) / float64(rep.SeedServes)
			}
			fmt.Fprintf(w, "%-16s %12d %15.2f %16.1f\n",
				orDefault(rep.Scenario.Picker, rarestfirst.PickerRarestFirst), drained, frac, meanEnd)
		}

		// A2: new vs old seed-state choke algorithm under free riders.
		fmt.Fprintf(w, "\n# A2: seed-state algorithm, torrent 14, 20%% free riders\n")
		fmt.Fprintf(w, "# seed-choke  ss-top5-share  free-mean(s)  contrib-mean(s)\n")
		for _, rep := range section("seed-choke") {
			top5 := 0.0
			if len(rep.FairnessUploadSS) > 0 {
				top5 = rep.FairnessUploadSS[0]
			}
			fmt.Fprintf(w, "%-11s %14.2f %13.0f %16.0f\n",
				orDefault(rep.Scenario.SeedChoke, rarestfirst.SeedChokeNew), top5,
				rep.MeanDownloadFree, rep.MeanDownloadContrib)
		}

		// A3: standard choke vs bit-level tit-for-tat. The decisive column
		// is local(s): the instrumented peer uploads at only 20 kB/s (an
		// asymmetric-capacity home user), and under tit-for-tat it cannot
		// use the swarm's excess capacity — the paper's §IV-B.1 argument.
		fmt.Fprintf(w, "\n# A3: leecher-state algorithm, torrent 14 (local peer = slow 20 kB/s uploader)\n")
		fmt.Fprintf(w, "# leecher-choke  mean-download(s)  finished  local(s)\n")
		for _, rep := range section("leecher-choke") {
			fmt.Fprintf(w, "%-15s %17.0f %9d %9.0f\n",
				orDefault(rep.Scenario.LeecherChoke, rarestfirst.LeecherChokeStandard),
				rep.MeanDownloadContrib, rep.FinishedContrib, rep.LocalDownloadSeconds)
		}

		// A4: duplicate pieces served by the initial seed in transient
		// state, with and without the idealized coding/super-seed policy.
		fmt.Fprintf(w, "\n# A4: initial-seed duplicate service, torrent 8 (transient)\n")
		fmt.Fprintf(w, "# policy       serves  duplicates  dup-frac\n")
		for _, rep := range section("smart-seed") {
			name := "client-pick"
			if rep.Scenario.SmartSeedServe {
				name = "smart-serve"
			}
			frac := 0.0
			if rep.SeedServes > 0 {
				frac = float64(rep.DupSeedServes) / float64(rep.SeedServes)
			}
			fmt.Fprintf(w, "%-12s %7d %11d %9.2f\n", name, rep.SeedServes, rep.DupSeedServes, frac)
		}

		// A5: free-rider penalty under the standard algorithms.
		fmt.Fprintf(w, "\n# A5: free riders, torrent 14, varying fraction\n")
		fmt.Fprintf(w, "# frac  contrib-mean(s)  free-mean(s)  penalty\n")
		for _, rep := range section("freerider-sweep") {
			penalty := 0.0
			if rep.MeanDownloadContrib > 0 {
				penalty = rep.MeanDownloadFree / rep.MeanDownloadContrib
			}
			fmt.Fprintf(w, "%5.2f %16.0f %13.0f %8.2fx\n", rep.Scenario.FreeRiderFraction,
				rep.MeanDownloadContrib, rep.MeanDownloadFree, penalty)
		}
		return nil
	})
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

func withFile(dir, name string, fn func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(dir, name))
	return f.Close()
}
