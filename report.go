package rarestfirst

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"

	"rarestfirst/internal/analysis"
	"rarestfirst/internal/swarm"
	"rarestfirst/internal/torrents"
	"rarestfirst/internal/trace"
)

// EntropySummary is one torrent's Fig 1 row: the 20th/50th/80th percentiles
// of the two interest-time ratio populations.
type EntropySummary struct {
	// AOverB summarizes a/b: local interest in remote leechers.
	AOverB analysis.Summary
	// COverD summarizes c/d: remote leechers' interest in the local peer.
	COverD analysis.Summary
}

// AvailPoint is one sample of Figs 2–6: piece replication in the local
// peer set over time.
type AvailPoint struct {
	T          float64
	Min        int
	Mean       float64
	Max        int
	RarestSize int
	PeerSet    int
	GlobalMin  int
	GlobalRare int
}

// InterarrivalCDF summarizes Fig 7/8: quantiles of the interarrival-time
// distribution for all events, the first 100 and the last 100.
type InterarrivalCDF struct {
	N                  int
	AllP50, AllP90     float64
	FirstP50, FirstP90 float64
	LastP50, LastP90   float64
	// FirstOverAllP90 > 1 signals the "first pieces/blocks problem"; the
	// paper finds it large while LastOverAllP90 stays near 1.
	FirstOverAllP90 float64
	LastOverAllP90  float64
}

// CorrelationReport is one Fig 10 panel: unchoke counts vs interested time.
type CorrelationReport struct {
	N        int
	Pearson  float64
	MaxUnch  int
	MeanUnch float64
}

// Report is everything one experiment produces.
type Report struct {
	TorrentID int
	Spec      string
	// State is the catalog's expected state; DetectedState is what the
	// run actually exhibited (§IV-A.2's criterion: transient while rare
	// pieces exist). Disagreement flags a scaling problem.
	State         string
	DetectedState string
	Scenario      Scenario

	LocalCompleted       bool
	LocalDownloadSeconds float64
	EndGameEntered       bool
	// FirstBlockSeconds / FirstPieceSeconds measure the startup delay of
	// the local peer (§VI: "the time to deliver the first blocks of data
	// should be reduced"); -1 when nothing arrived.
	FirstBlockSeconds float64
	FirstPieceSeconds float64

	Entropy      EntropySummary
	Availability []AvailPoint
	PieceCDF     InterarrivalCDF
	BlockCDF     InterarrivalCDF

	// FairnessLS: Fig 9. Share of leecher-state upload received by each
	// 5-peer set (ranked by received bytes), and the same sets' share of
	// the local peer's downloads (reciprocation).
	FairnessUploadLS []float64
	FairnessRecipLS  []float64
	// FairnessSS: Fig 11. Share of seed-state upload per 5-peer set.
	FairnessUploadSS []float64

	UnchokeLS CorrelationReport
	UnchokeSS CorrelationReport

	// Initial-seed service (A4): total pieces served and duplicates.
	SeedServes    int
	DupSeedServes int

	// Swarm-level download times (ablations).
	MeanDownloadContrib float64
	MeanDownloadFree    float64
	FinishedContrib     int
	FinishedFree        int
	// Arrivals counts every leecher that ever joined (initial population
	// plus the churn stream) — the flash-crowd benchmarks' population
	// measure.
	Arrivals int

	// MsgCounts tallies the local peer's control-plane events (interest
	// transitions, choke transitions, HAVEs observed) — the message-log
	// summary of the paper's instrumentation.
	MsgCounts map[string]int

	// Faults tallies resilience events under a chaos scenario: dial
	// retries, request timeouts, snubs, announce failures and injected
	// faults (live), and their swarm_-prefixed simulator twins. nil — and
	// omitted from the JSON, keeping golden digests untouched — on every
	// fault-free run.
	Faults map[string]int `json:",omitempty"`

	// Events is the discrete-event scheduler's end-of-run occupancy: how
	// big the heap got versus how many entries were live, and how much the
	// timer free list saved. The benchmark trajectory harness records it
	// per snapshot.
	Events EventHeapStats
}

// EventHeapStats mirrors the simulator scheduler's internal counters for
// reporting (see internal/sim.EngineStats).
type EventHeapStats struct {
	// HeapSize is the event-heap occupancy at end of run, including
	// lazily-deleted entries; Live excludes them.
	HeapSize  int
	Live      int
	Cancelled int
	// TimersReused counts scheduling calls served by the timer free list;
	// Compactions counts lazy-deletion sweeps.
	TimersReused uint64
	Compactions  uint64
	// PeakLaneWidth is the widest same-instant batch of lane choke
	// rounds the scheduler executed (0 unless Scenario.ChokeLanes).
	// LaneBatches and LaneEvents count the batches and the rounds they
	// carried.
	// omitempty keeps pre-lane report serializations byte-identical.
	PeakLaneWidth int    `json:",omitempty"`
	LaneBatches   uint64 `json:",omitempty"`
	LaneEvents    uint64 `json:",omitempty"`
	// Deferred-retiming counters from the fluid model (sim.NetStats):
	// DirtyFlushes counts post-event flush passes that re-timed at least
	// one node, RetimeBatches the dirty nodes they processed (mean flush
	// width = RetimeBatches/DirtyFlushes), and PeakShardWidth the widest
	// dirty-node set one flush re-timed.
	DirtyFlushes   uint64 `json:",omitempty"`
	RetimeBatches  uint64 `json:",omitempty"`
	PeakShardWidth int    `json:",omitempty"`
	// TimerPoolCap / FlowPoolCap are the high-water-derived bounds on the
	// scheduler's timer free list and the fluid model's flow free list —
	// what keeps a flash-crowd peak from pinning peak-sized pools.
	TimerPoolCap int `json:",omitempty"`
	FlowPoolCap  int `json:",omitempty"`
	// Engine phase timing (PR 8, internal/obs): wall-clock nanoseconds
	// spent in each scheduler phase, populated only when a run executes
	// with an active obs registry. Wall-clock telemetry, not simulation
	// output — reportDigest zeroes Events, so these never affect goldens.
	LaneComputeNs uint64 `json:",omitempty"`
	LaneApplyNs   uint64 `json:",omitempty"`
	RetimeFlushNs uint64 `json:",omitempty"`
	HaveFlushNs   uint64 `json:",omitempty"`
}

// buildReport derives every figure's statistics from the run result.
func buildReport(sc Scenario, spec torrents.Spec, cfg swarm.Config, res *swarm.Result) *Report {
	col := res.Collector
	recs := col.Records()

	rep := &Report{
		TorrentID:            spec.ID,
		Spec:                 spec.String(),
		State:                spec.State.String(),
		Scenario:             sc,
		LocalCompleted:       res.LocalCompleted,
		LocalDownloadSeconds: res.LocalDownloadTime,
		SeedServes:           res.SeedServes,
		DupSeedServes:        res.DupSeedServes,
		MeanDownloadContrib:  res.MeanDownloadContrib,
		MeanDownloadFree:     res.MeanDownloadFree,
		FinishedContrib:      res.FinishedContrib,
		FinishedFree:         res.FinishedFree,
		Arrivals:             res.Arrivals,
		MsgCounts:            col.MsgCounts,
		Faults:               col.FaultCounts,
		Events: EventHeapStats{
			HeapSize:       res.Events.HeapSize,
			Live:           res.Events.Live,
			Cancelled:      res.Events.Cancelled,
			TimersReused:   res.Events.Reused,
			Compactions:    res.Events.Compactions,
			PeakLaneWidth:  res.Events.PeakLaneWidth,
			LaneBatches:    res.Events.LaneBatches,
			LaneEvents:     res.Events.LaneEvents,
			DirtyFlushes:   res.Net.DirtyFlushes,
			RetimeBatches:  res.Net.RetimeBatches,
			PeakShardWidth: res.Net.PeakShardWidth,
			TimerPoolCap:   res.Events.TimerPoolCap,
			FlowPoolCap:    res.Net.FlowPoolCap,
			LaneComputeNs:  res.Events.LaneComputeNs,
			LaneApplyNs:    res.Events.LaneApplyNs,
			RetimeFlushNs:  res.Events.RetimeFlushNs,
			HaveFlushNs:    res.Events.HaveFlushNs,
		},
	}
	for _, e := range col.Events {
		if e.Name == "end_game" {
			rep.EndGameEntered = true
		}
	}
	rep.FirstBlockSeconds, rep.FirstPieceSeconds = -1, -1
	if len(col.BlockTimes) > 0 {
		rep.FirstBlockSeconds = col.BlockTimes[0] - col.StartAt()
	}
	if len(col.PieceTimes) > 0 {
		rep.FirstPieceSeconds = col.PieceTimes[0] - col.StartAt()
	}

	a, c := analysis.EntropyRatios(recs)
	rep.Entropy = EntropySummary{AOverB: analysis.Summarize(a), COverD: analysis.Summarize(c)}

	for _, s := range col.Samples {
		rep.Availability = append(rep.Availability, AvailPoint{
			T: s.T, Min: s.Min, Mean: s.Mean, Max: s.Max,
			RarestSize: s.RarestSize, PeerSet: s.PeerSet,
			GlobalMin: s.GlobalMin, GlobalRare: s.GlobalRare,
		})
	}

	// The paper uses the first/last 100 of ~900–1400 pieces; at reduced
	// scale the window is the same fraction (~10%) of the arrival series.
	pieceWin := max(8, cfg.NumPieces/10)
	blockWin := max(32, cfg.Geometry().TotalBlocks()/10)
	rep.PieceCDF = interarrivalCDF(col.PieceTimes, pieceWin)
	rep.BlockCDF = interarrivalCDF(col.BlockTimes, blockWin)

	rep.FairnessUploadLS = analysis.UploadFairness(recs, false, 6)
	rep.FairnessRecipLS = analysis.ReciprocationFairness(recs, 6)
	rep.FairnessUploadSS = analysis.UploadFairness(recs, true, 6)

	rep.UnchokeLS = correlation(recs, false)
	rep.UnchokeSS = correlation(recs, true)
	rep.DetectedState = detectState(rep.Availability)
	return rep
}

// detectState classifies the run by the paper's criterion: a torrent is in
// transient state exactly while rare pieces (pieces held only by the
// initial seed) exist. A run that spends more than half its samples with
// rare pieces out is transient; with none, steady.
func detectState(av []AvailPoint) string {
	if len(av) == 0 {
		return "unknown"
	}
	rare := 0
	for _, p := range av {
		if p.GlobalRare > 0 {
			rare++
		}
	}
	switch {
	case rare > len(av)/2:
		return "transient"
	case rare == 0:
		return "steady"
	default:
		return "mixed"
	}
}

func interarrivalCDF(times []float64, n int) InterarrivalCDF {
	all := analysis.Interarrivals(times)
	first, last := analysis.HeadTail(times, n)
	ac, fc, lc := analysis.NewCDF(all), analysis.NewCDF(first), analysis.NewCDF(last)
	out := InterarrivalCDF{
		N:        len(times),
		AllP50:   ac.Quantile(0.5),
		AllP90:   ac.Quantile(0.9),
		FirstP50: fc.Quantile(0.5),
		FirstP90: fc.Quantile(0.9),
		LastP50:  lc.Quantile(0.5),
		LastP90:  lc.Quantile(0.9),
	}
	if out.AllP90 > 0 {
		out.FirstOverAllP90 = out.FirstP90 / out.AllP90
		out.LastOverAllP90 = out.LastP90 / out.AllP90
	}
	return out
}

func correlation(recs []*trace.PeerRecord, ss bool) CorrelationReport {
	x, y := analysis.UnchokePoints(recs, ss)
	rep := CorrelationReport{N: len(x), Pearson: analysis.Pearson(x, y)}
	var sum float64
	for _, v := range y {
		if int(v) > rep.MaxUnch {
			rep.MaxUnch = int(v)
		}
		sum += v
	}
	if len(y) > 0 {
		rep.MeanUnch = sum / float64(len(y))
	}
	return rep
}

// WriteText renders the report as the plain-text rows/series the paper's
// figures plot.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s\n", r.Spec)
	fmt.Fprintf(w, "state=%s (detected: %s) picker=%s seed-choke=%s leecher-choke=%s\n",
		r.State, r.DetectedState, orDefault(r.Scenario.Picker, PickerRarestFirst),
		orDefault(r.Scenario.SeedChoke, SeedChokeNew),
		orDefault(r.Scenario.LeecherChoke, LeecherChokeStandard))
	if r.LocalCompleted {
		fmt.Fprintf(w, "local peer: completed in %.0f s (end game: %v)\n",
			r.LocalDownloadSeconds, r.EndGameEntered)
	} else {
		fmt.Fprintf(w, "local peer: NOT completed (end game: %v)\n", r.EndGameEntered)
	}

	fmt.Fprintf(w, "[fig1] entropy a/b: n=%d p20=%.3f p50=%.3f p80=%.3f\n",
		r.Entropy.AOverB.N, r.Entropy.AOverB.P20, r.Entropy.AOverB.P50, r.Entropy.AOverB.P80)
	fmt.Fprintf(w, "[fig1] entropy c/d: n=%d p20=%.3f p50=%.3f p80=%.3f\n",
		r.Entropy.COverD.N, r.Entropy.COverD.P20, r.Entropy.COverD.P50, r.Entropy.COverD.P80)

	if len(r.Availability) > 0 {
		fmt.Fprintf(w, "[fig2-6] t(s)  min  mean  max  rarest  peerset  globalrare\n")
		step := len(r.Availability) / 12
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(r.Availability); i += step {
			p := r.Availability[i]
			fmt.Fprintf(w, "[fig2-6] %7.0f  %3d  %6.1f  %3d  %5d  %5d  %5d\n",
				p.T, p.Min, p.Mean, p.Max, p.RarestSize, p.PeerSet, p.GlobalRare)
		}
	}

	if len(r.Availability) > 0 {
		n := len(r.Availability)
		series := func(get func(AvailPoint) float64) []float64 {
			out := make([]float64, n)
			for i, p := range r.Availability {
				out[i] = get(p)
			}
			return out
		}
		fmt.Fprintf(w, "[plot] %s\n", analysis.PlotSeries("min", series(func(p AvailPoint) float64 { return float64(p.Min) }), 48))
		fmt.Fprintf(w, "[plot] %s\n", analysis.PlotSeries("mean", series(func(p AvailPoint) float64 { return p.Mean }), 48))
		fmt.Fprintf(w, "[plot] %s\n", analysis.PlotSeries("max", series(func(p AvailPoint) float64 { return float64(p.Max) }), 48))
		fmt.Fprintf(w, "[plot] %s\n", analysis.PlotSeries("rarest", series(func(p AvailPoint) float64 { return float64(p.RarestSize) }), 48))
		fmt.Fprintf(w, "[plot] %s\n", analysis.PlotSeries("peerset", series(func(p AvailPoint) float64 { return float64(p.PeerSet) }), 48))
		fmt.Fprintf(w, "[plot] %s\n", analysis.PlotSeries("rare", series(func(p AvailPoint) float64 { return float64(p.GlobalRare) }), 48))
	}

	writeCDF := func(tag string, c InterarrivalCDF) {
		fmt.Fprintf(w, "[%s] n=%d p50 all/first/last = %.2f/%.2f/%.2f s; p90 = %.2f/%.2f/%.2f s; first/all p90 = %.2fx, last/all p90 = %.2fx\n",
			tag, c.N, c.AllP50, c.FirstP50, c.LastP50, c.AllP90, c.FirstP90, c.LastP90,
			c.FirstOverAllP90, c.LastOverAllP90)
	}
	writeCDF("fig7-pieces", r.PieceCDF)
	writeCDF("fig8-blocks", r.BlockCDF)

	fmt.Fprintf(w, "[fig9] upload share by 5-peer set (LS):   %s\n", fmtShares(r.FairnessUploadLS))
	fmt.Fprintf(w, "[fig9] download share, same ranking (LS): %s\n", fmtShares(r.FairnessRecipLS))
	fmt.Fprintf(w, "[fig11] upload share by 5-peer set (SS):  %s\n", fmtShares(r.FairnessUploadSS))

	fmt.Fprintf(w, "[fig10] unchokes~interested LS: n=%d pearson=%.3f max=%d mean=%.1f\n",
		r.UnchokeLS.N, r.UnchokeLS.Pearson, r.UnchokeLS.MaxUnch, r.UnchokeLS.MeanUnch)
	fmt.Fprintf(w, "[fig10] unchokes~interested SS: n=%d pearson=%.3f max=%d mean=%.1f\n",
		r.UnchokeSS.N, r.UnchokeSS.Pearson, r.UnchokeSS.MaxUnch, r.UnchokeSS.MeanUnch)

	if len(r.MsgCounts) > 0 {
		keys := make([]string, 0, len(r.MsgCounts))
		for k := range r.MsgCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "[msgs]")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, r.MsgCounts[k])
		}
		fmt.Fprintln(w)
	}

	if len(r.Faults) > 0 {
		keys := make([]string, 0, len(r.Faults))
		for k := range r.Faults {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "[faults]")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, r.Faults[k])
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "[a4] initial seed served %d pieces, %d duplicates\n", r.SeedServes, r.DupSeedServes)
	if r.FinishedContrib > 0 || r.FinishedFree > 0 {
		fmt.Fprintf(w, "[swarm] mean download: contributors %.0f s (n=%d), free riders %.0f s (n=%d)\n",
			r.MeanDownloadContrib, r.FinishedContrib, r.MeanDownloadFree, r.FinishedFree)
	}
}

// JSONLine renders the complete report as a single line of JSON — the
// machine-readable sink suite runs write one line per run of. NaN and
// infinite floats (possible in correlation and share fields when a run has
// no data in some class) are replaced by zero, since JSON cannot represent
// them; the plain-text renderer applies the same convention.
func (r *Report) JSONLine() ([]byte, error) {
	clean := sanitizedCopy(reflect.ValueOf(*r)).Interface().(Report)
	return json.Marshal(&clean)
}

// MarshalAggregateLine renders one aggregate as a line for the JSONL
// sink, NaN/Inf-sanitized like Report.JSONLine. The Kind field
// distinguishes aggregate lines from per-run Report lines (which have no
// Kind) when both share a stream; Suite names the producing suite.
func MarshalAggregateLine(suite string, a Aggregate) ([]byte, error) {
	type line struct {
		Kind  string
		Suite string
		Aggregate
	}
	clean := sanitizedCopy(reflect.ValueOf(line{Kind: "aggregate", Suite: suite, Aggregate: a})).Interface().(line)
	return json.Marshal(&clean)
}

// sanitizedCopy deep-copies v, zeroing every NaN or infinite float so the
// result is JSON-encodable without touching the original's shared slices.
// It requires every reachable struct field to be exported (reflect cannot
// set unexported fields; Report and everything it embeds satisfy this, and
// the golden-digest tests exercise the full shape, so a violation fails
// loudly in CI rather than silently).
func sanitizedCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return v
		}
		out := reflect.New(v.Type().Elem())
		out.Elem().Set(sanitizedCopy(v.Elem()))
		return out
	case reflect.Interface:
		if v.IsNil() {
			return v
		}
		out := reflect.New(v.Type()).Elem()
		out.Set(sanitizedCopy(v.Elem()))
		return out
	case reflect.Float64, reflect.Float32:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0
		}
		out := reflect.New(v.Type()).Elem()
		out.SetFloat(f)
		return out
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(sanitizedCopy(v.Index(i)))
		}
		return out
	case reflect.Map:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeMapWithSize(v.Type(), v.Len())
		iter := v.MapRange()
		for iter.Next() {
			out.SetMapIndex(iter.Key(), sanitizedCopy(iter.Value()))
		}
		return out
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(sanitizedCopy(v.Field(i)))
		}
		return out
	default:
		return v
	}
}

func fmtShares(shares []float64) string {
	if len(shares) == 0 {
		return "(no data)"
	}
	s := ""
	for i, v := range shares {
		if i > 0 {
			s += " "
		}
		if math.IsNaN(v) {
			v = 0
		}
		s += fmt.Sprintf("%.2f", v)
	}
	return s
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// SuiteReport is everything a suite run produces: the per-scenario
// reports in suite order plus cross-run aggregates (mean/stddev over the
// seed repeats of each configuration) and, when the suite mixes backends,
// the sim-vs-live cross-validation pairs.
type SuiteReport struct {
	Name        string
	Description string
	Reports     []*Report
	Aggregates  []Aggregate
	// CrossValidation pairs each live configuration with the sim twin
	// sharing its label — the lab's claim check: do real TCP swarms
	// reproduce the simulator's qualitative findings?
	CrossValidation []CrossPair
}

// CrossPair is one sim-vs-live pairing: two aggregates with the same
// Label, one per backend.
type CrossPair struct {
	Label string
	Sim   Aggregate
	Live  Aggregate
}

// crossValidate pairs aggregates that share a Label across backends, in
// first-appearance order of the live side. Labels with no twin (or with a
// duplicated one, which Register-time label discipline prevents) are
// skipped rather than guessed at.
func crossValidate(aggs []Aggregate) []CrossPair {
	simByLabel := map[string]*Aggregate{}
	for i := range aggs {
		if !aggs[i].Live {
			if _, dup := simByLabel[aggs[i].Label]; !dup {
				simByLabel[aggs[i].Label] = &aggs[i]
			}
		}
	}
	var out []CrossPair
	for i := range aggs {
		if !aggs[i].Live {
			continue
		}
		if sim := simByLabel[aggs[i].Label]; sim != nil {
			out = append(out, CrossPair{Label: aggs[i].Label, Sim: *sim, Live: aggs[i]})
		}
	}
	return out
}

// MetricStat summarizes one metric over the runs of an aggregation group.
type MetricStat struct {
	N                      int
	Mean, Stddev, Min, Max float64
}

func newMetricStat(xs []float64) MetricStat {
	st := MetricStat{N: len(xs)}
	if st.N == 0 {
		return st
	}
	st.Min, st.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < st.Min {
			st.Min = x
		}
		if x > st.Max {
			st.Max = x
		}
	}
	st.Mean = sum / float64(st.N)
	if st.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - st.Mean
			ss += float64(d * d) // float64: no fused multiply-add
		}
		st.Stddev = math.Sqrt(ss / float64(st.N-1))
	}
	return st
}

// AvailBand is one point of an aggregate availability envelope: the
// spread, across a configuration's seed repeats, of the per-run mean piece
// replication at the same sample index.
type AvailBand struct {
	// T is the mean sample time across the contributing runs.
	T float64
	// Min/Mean/Max band the runs' mean-copies series.
	Min, Mean, Max float64
}

// Aggregate summarizes every run of one scenario configuration (same
// Scenario modulo SeedOverride) inside a suite.
type Aggregate struct {
	// Label is the scenario's Label, or a derived "torrent=N" fallback.
	Label     string
	TorrentID int
	// Live marks configurations that ran on the real-TCP loopback
	// backend; a sim/live pair shares a Label and differs here.
	Live      bool
	Runs      int
	Completed int // runs where the local peer finished its download

	// LocalDownload is over completed runs only; ContribDownload and
	// FreeDownload are over runs where anyone in the class finished.
	LocalDownload   MetricStat
	ContribDownload MetricStat
	FreeDownload    MetricStat
	// EntropyAB / EntropyCD summarize the per-run a/b and c/d medians.
	EntropyAB MetricStat
	EntropyCD MetricStat
	// FirstPieceRatio summarizes PieceCDF.FirstOverAllP90 (the
	// first-pieces problem; > 1 means slow first pieces).
	FirstPieceRatio MetricStat

	// Fairness-share stats over the repeats: the top 5-peer set's share
	// of leecher-state uploads (Fig 9 top bar), of the reciprocation
	// downloads from the same ranking (Fig 9 bottom), and of seed-state
	// uploads (Fig 11). Runs without data in a class are skipped.
	TopSetUploadLS MetricStat
	TopSetRecipLS  MetricStat
	TopSetUploadSS MetricStat

	// AvailMeanCopies is the availability-series envelope: at each sample
	// index, the min/mean/max across runs of that run's mean piece-copy
	// count — the Figs 2-6 replication curve with a seed-spread band.
	// The envelope is truncated to the shortest run's series.
	AvailMeanCopies []AvailBand

	// Faults sums the runs' fault counters (chaos scenarios only; nil —
	// and omitted — everywhere else).
	Faults map[string]int `json:",omitempty"`
}

// scenarioKey identifies a scenario's aggregation group: the full
// configuration with the repeat seed cleared.
func scenarioKey(sc Scenario) Scenario {
	sc.SeedOverride = 0
	return sc
}

// String renders the key compactly for error messages.
func (a Aggregate) String() string {
	return fmt.Sprintf("%s (torrent %d, %d runs)", a.Label, a.TorrentID, a.Runs)
}

// AggregateReports groups reports by scenario configuration (Scenario
// modulo SeedOverride) and computes per-group statistics. Groups appear in
// first-appearance order of the input slice, so the result depends only on
// the input order — never on the completion order of a parallel run. Nil
// reports (failed runs) are skipped.
func AggregateReports(reports []*Report) []Aggregate {
	type group struct {
		label     string
		torrentID int
		live      bool
		completed int
		local     []float64
		contrib   []float64
		free      []float64
		entAB     []float64
		entCD     []float64
		firstOver []float64
		topUpLS   []float64
		topRecLS  []float64
		topUpSS   []float64
		avail     [][]AvailPoint
		faults    map[string]int
	}
	var order []Scenario
	groups := map[Scenario]*group{}
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		key := scenarioKey(rep.Scenario)
		g, ok := groups[key]
		if !ok {
			label := rep.Scenario.Label
			if label == "" {
				label = fmt.Sprintf("torrent=%d", rep.TorrentID)
			}
			g = &group{label: label, torrentID: rep.TorrentID, live: rep.Scenario.Live}
			groups[key] = g
			order = append(order, key)
		}
		if rep.LocalCompleted {
			g.completed++
			g.local = append(g.local, rep.LocalDownloadSeconds)
		}
		if rep.FinishedContrib > 0 {
			g.contrib = append(g.contrib, rep.MeanDownloadContrib)
		}
		if rep.FinishedFree > 0 {
			g.free = append(g.free, rep.MeanDownloadFree)
		}
		g.entAB = append(g.entAB, rep.Entropy.AOverB.P50)
		g.entCD = append(g.entCD, rep.Entropy.COverD.P50)
		g.firstOver = append(g.firstOver, rep.PieceCDF.FirstOverAllP90)
		if len(rep.FairnessUploadLS) > 0 {
			g.topUpLS = append(g.topUpLS, rep.FairnessUploadLS[0])
		}
		if len(rep.FairnessRecipLS) > 0 {
			g.topRecLS = append(g.topRecLS, rep.FairnessRecipLS[0])
		}
		if len(rep.FairnessUploadSS) > 0 {
			g.topUpSS = append(g.topUpSS, rep.FairnessUploadSS[0])
		}
		if len(rep.Availability) > 0 {
			g.avail = append(g.avail, rep.Availability)
		}
		for k, v := range rep.Faults {
			if g.faults == nil {
				g.faults = map[string]int{}
			}
			g.faults[k] += v
		}
	}
	out := make([]Aggregate, 0, len(order))
	for _, key := range order {
		g := groups[key]
		out = append(out, Aggregate{
			Label:           g.label,
			TorrentID:       g.torrentID,
			Live:            g.live,
			Runs:            len(g.entAB),
			Completed:       g.completed,
			LocalDownload:   newMetricStat(g.local),
			ContribDownload: newMetricStat(g.contrib),
			FreeDownload:    newMetricStat(g.free),
			EntropyAB:       newMetricStat(g.entAB),
			EntropyCD:       newMetricStat(g.entCD),
			FirstPieceRatio: newMetricStat(g.firstOver),
			TopSetUploadLS:  newMetricStat(g.topUpLS),
			TopSetRecipLS:   newMetricStat(g.topRecLS),
			TopSetUploadSS:  newMetricStat(g.topUpSS),
			AvailMeanCopies: availEnvelope(g.avail),
			Faults:          g.faults,
		})
	}
	return out
}

// availEnvelope bands the runs' mean-copies series point-by-point. Series
// are aligned by sample index (repeats of one configuration sample on the
// same cadence) and truncated to the shortest; live runs can have ragged
// lengths, so truncation rather than padding keeps every band fully
// populated.
func availEnvelope(series [][]AvailPoint) []AvailBand {
	if len(series) == 0 {
		return nil
	}
	n := len(series[0])
	for _, s := range series {
		if len(s) < n {
			n = len(s)
		}
	}
	out := make([]AvailBand, n)
	for i := 0; i < n; i++ {
		b := AvailBand{Min: series[0][i].Mean, Max: series[0][i].Mean}
		var tSum, vSum float64
		for _, s := range series {
			v := s[i].Mean
			vSum += v
			tSum += s[i].T
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
		}
		b.T = tSum / float64(len(series))
		b.Mean = vSum / float64(len(series))
		out[i] = b
	}
	return out
}

// WriteText renders the suite's aggregate table: one row per scenario
// configuration, mean±stddev over its seed repeats.
func (sr *SuiteReport) WriteText(w io.Writer) {
	runs := 0
	for _, rep := range sr.Reports {
		if rep != nil {
			runs++
		}
	}
	fmt.Fprintf(w, "== suite %s: %d runs, %d configurations\n", sr.Name, runs, len(sr.Aggregates))
	if sr.Description != "" {
		fmt.Fprintf(w, "# %s\n", sr.Description)
	}
	fmt.Fprintf(w, "# %-24s %7s %4s %4s  %-17s %-17s %-15s %-15s %s\n",
		"label", "torrent", "runs", "done", "local(s)", "contrib(s)", "a/b-p50", "c/d-p50", "first/all-p90")
	for _, a := range sr.Aggregates {
		fmt.Fprintf(w, "  %-24s %7d %4d %4d  %-17s %-17s %-15s %-15s %s\n",
			aggLabel(a), a.TorrentID, a.Runs, a.Completed,
			fmtStat(a.LocalDownload, 0), fmtStat(a.ContribDownload, 0),
			fmtStat(a.EntropyAB, 3), fmtStat(a.EntropyCD, 3),
			fmtStat(a.FirstPieceRatio, 2))
		if a.FreeDownload.N > 0 {
			fmt.Fprintf(w, "  %-24s free riders: mean download %s s\n", "", fmtStat(a.FreeDownload, 0))
		}
		if a.TopSetUploadLS.N > 0 || a.TopSetRecipLS.N > 0 || a.TopSetUploadSS.N > 0 {
			fmt.Fprintf(w, "  %-24s top-5-set shares: up-LS %s  recip-LS %s  up-SS %s\n", "",
				fmtStat(a.TopSetUploadLS, 2), fmtStat(a.TopSetRecipLS, 2), fmtStat(a.TopSetUploadSS, 2))
		}
		if len(a.AvailMeanCopies) > 0 {
			means := make([]float64, len(a.AvailMeanCopies))
			lo, hi := a.AvailMeanCopies[0].Min, a.AvailMeanCopies[0].Max
			for i, b := range a.AvailMeanCopies {
				means[i] = b.Mean
				lo = math.Min(lo, b.Min)
				hi = math.Max(hi, b.Max)
			}
			fmt.Fprintf(w, "  %-24s avail mean-copies: %s seed-band [%.1f .. %.1f]\n", "",
				analysis.Sparkline(means, 40), lo, hi)
		}
	}

	if len(sr.CrossValidation) > 0 {
		fmt.Fprintf(w, "\n== sim vs live cross-validation: %d pair(s)\n", len(sr.CrossValidation))
		fmt.Fprintf(w, "# %-20s %-7s %4s %4s  %-14s %-15s %-15s %-15s %s\n",
			"label", "backend", "runs", "done", "local(s)", "a/b-p50", "c/d-p50", "first/all-p90", "top-up-LS")
		row := func(backend string, a Aggregate) {
			fmt.Fprintf(w, "  %-20s %-7s %4d %4d  %-14s %-15s %-15s %-15s %s\n",
				a.Label, backend, a.Runs, a.Completed,
				fmtStat(a.LocalDownload, 1), fmtStat(a.EntropyAB, 3), fmtStat(a.EntropyCD, 3),
				fmtStat(a.FirstPieceRatio, 2), fmtStat(a.TopSetUploadLS, 2))
			if len(a.Faults) > 0 {
				keys := make([]string, 0, len(a.Faults))
				for k := range a.Faults {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				fmt.Fprintf(w, "  %-20s %-7s faults:", "", backend)
				for _, k := range keys {
					fmt.Fprintf(w, " %s=%d", k, a.Faults[k])
				}
				fmt.Fprintln(w)
			}
		}
		for _, p := range sr.CrossValidation {
			row("sim", p.Sim)
			row("live", p.Live)
		}
		fmt.Fprintf(w, "# NOTE: sim local(s) are simulated seconds at catalog scale, live local(s) wall-clock\n")
		fmt.Fprintf(w, "#       seconds at loopback scale; compare the dimensionless columns, not durations.\n")
	}
}

// aggLabel marks live-backend aggregates in suite tables.
func aggLabel(a Aggregate) string {
	if a.Live {
		return a.Label + " (live)"
	}
	return a.Label
}

// fmtStat renders "mean±stddev" at the given precision; "-" when empty.
func fmtStat(st MetricStat, prec int) string {
	if st.N == 0 {
		return "-"
	}
	if st.N == 1 {
		return fmt.Sprintf("%.*f", prec, st.Mean)
	}
	return fmt.Sprintf("%.*f±%.*f", prec, st.Mean, prec, st.Stddev)
}
