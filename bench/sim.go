package main

// The three simulator workloads and their traced decomposition.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"rarestfirst"
	"rarestfirst/internal/obs"
	"rarestfirst/internal/scenario"
	"rarestfirst/internal/swarm"
)

// simInstance times rarestfirst.Run on one scenario, or Runner.RunSuite
// on a suite of them. Every iteration must reproduce the first one's
// reports byte for byte: no digest is pinned here, so a documented
// contract bump moves the reference with it.
type simInstance struct {
	scs   []rarestfirst.Scenario
	suite *rarestfirst.Suite // non-nil: run scs through RunSuite
	check func(reps []*rarestfirst.Report, aggregates int) error

	reports    []*rarestfirst.Report
	aggregates int
	ref        string
}

func (b *bench) newSim(name string, seed int64) (instance, error) {
	sz := b.sz
	inst := &simInstance{}
	switch name {
	case wSimSteady:
		sc := sz.steady
		sc.SeedOverride = seed
		inst.scs = []rarestfirst.Scenario{sc}
		// Not LocalCompleted: the local peer draws its capacity like any
		// other, and now and then a seed gives it a link too slow
		// to finish inside the scenario's duration at any swarm size.
		inst.check = func(reps []*rarestfirst.Report, _ int) error {
			if n := reps[0].FinishedContrib + reps[0].FinishedFree; n < sz.steadyMinFinished {
				return fmt.Errorf("%d leechers finished, want >= %d", n, sz.steadyMinFinished)
			}
			return nil
		}
	case wSimFlash:
		sc := sz.flash
		sc.SeedOverride = seed
		inst.scs = []rarestfirst.Scenario{sc}
		inst.check = func(reps []*rarestfirst.Report, _ int) error {
			if reps[0].Arrivals < sz.flashMinPeers {
				return fmt.Errorf("flash crowd reached %d arrivals, want >= %d", reps[0].Arrivals, sz.flashMinPeers)
			}
			return nil
		}
	case wSimCat:
		suite, err := rarestfirst.NewSuite("catalog", rarestfirst.SuiteOptions{
			Scale: sz.catalogScale, Seeds: []int64{seed}, Torrents: sz.catalog})
		if err != nil {
			return nil, err
		}
		inst.scs, inst.suite = suite.Scenarios, &suite
		inst.check = func(reps []*rarestfirst.Report, aggregates int) error {
			if aggregates != len(reps) {
				return fmt.Errorf("%d aggregates for %d torrents", aggregates, len(reps))
			}
			return nil
		}
	}
	// Warm-up: the first iteration in a fresh process is up to 5x slower
	// from page faults; it also fixes the determinism reference.
	if err := inst.run(); err != nil {
		return nil, err
	}
	if _, err := inst.finish(); err != nil {
		return nil, err
	}
	return inst, nil
}

func (s *simInstance) prepare() error { return nil }
func (s *simInstance) close()         {}

func (s *simInstance) run() error {
	if s.suite != nil {
		sr, err := rarestfirst.Runner{}.RunSuite(*s.suite)
		if err != nil {
			return err
		}
		s.reports, s.aggregates = sr.Reports, len(sr.Aggregates)
		return nil
	}
	rep, err := rarestfirst.Run(s.scs[0])
	s.reports = []*rarestfirst.Report{rep}
	return err
}

func (s *simInstance) finish() (tally, error) {
	tl := tally{attempted: len(s.scs), ops: float64(sumArrivals(s.reports))}
	err := s.check(s.reports, s.aggregates)
	if err == nil {
		var d string
		if d, err = digest(s.reports); err == nil {
			if s.ref == "" {
				s.ref = d
			} else if d != s.ref {
				err = fmt.Errorf("reports differ from the first iteration's (determinism)")
			}
		}
	}
	if err != nil {
		tl.failed = tl.attempted
	}
	return tl, err
}

// digest hashes the reports' JSON with Events zeroed: Events carries
// wall-clock phase timers when a registry is active.
func digest(reps []*rarestfirst.Report) (string, error) {
	h := sha256.New()
	for _, r := range reps {
		c := *r
		c.Events = rarestfirst.EventHeapStats{}
		line, err := c.JSONLine()
		if err != nil {
			return "", err
		}
		h.Write(line)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// toSpec maps the public scenario onto the internal spec the way
// rarestfirst.Run does. The two structs mirror each other field for
// field, so a JSON round trip converts them without a third hand-kept
// copy of the field list.
func toSpec(sc rarestfirst.Scenario) (scenario.Spec, error) {
	var sp scenario.Spec
	raw, err := json.Marshal(sc)
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	return sp, err
}

// timeRun returns the wall time of one pass over the instance.
func timeRun(inst instance) (time.Duration, error) {
	t0 := time.Now()
	if err := inst.run(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	_, err := inst.finish()
	return d, err
}

// traceSim is the traced run of a sim workload: an untraced and a traced
// pass for the overhead ratio, then the same scenarios decomposed into
// config / swarm.New / swarm.Run spans with the engine's phase timers as
// children of swarm.run.
func (b *bench) traceSim(name string, seed int64, rec *recorder, out *layerValues) error {
	instI, err := b.newSim(name, seed)
	if err != nil {
		return err
	}
	inst := instI.(*simInstance)
	off, err := timeRun(inst)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	on, err := timeRun(inst)
	if err != nil {
		return err
	}
	out.set("trace_overhead_ratio", on.Seconds()/off.Seconds())

	// Each scenario runs decomposed and then whole (rarestfirst.Run),
	// sizes.tracePairs times over. rarestfirst.Run does config + New + Run +
	// buildReport and nothing else, so whole minus decomposed is the
	// report derivation; the two are separate runs, so each side takes
	// its fastest pass, which host interference can only have slowed.
	type pass struct {
		cfg, new, run, phases time.Duration
		res                   *swarm.Result
	}
	var cfgT, newT, runT, phaseT, buildT time.Duration
	var ev sumStats
	var events float64
	best := make([]pass, len(inst.scs))
	whole := make([]time.Duration, len(inst.scs))
	wholeID := make([]int, len(inst.scs))
	for p := 0; p < b.sz.tracePairs; p++ {
		iter := rec.root("iteration", p+1)
		for i, sc := range inst.scs {
			sp, err := toSpec(sc)
			if err != nil {
				return err
			}
			var ps pass
			id := rec.start("scenario.config", iter)
			cfg, _, err := sp.Config()
			ps.cfg = rec.end(id)
			if err != nil {
				return err
			}
			id = rec.start("swarm.new", iter)
			sw := swarm.New(cfg)
			ps.new = rec.end(id)
			e0, _ := reg.Value("sim_events_total")
			id = rec.start("swarm.run", iter)
			ps.res = sw.Run()
			ps.run = rec.end(id)
			e1, _ := reg.Value("sim_events_total")
			e := ps.res.Events
			for _, ph := range []struct {
				name string
				ns   uint64
			}{
				{"sim.engine.lane_compute", e.LaneComputeNs},
				{"sim.engine.lane_apply", e.LaneApplyNs},
				{"sim.engine.merge", e.MergeNs},
				{"sim.net.retime_flush", e.RetimeFlushNs},
				{"swarm.have_flush", e.HaveFlushNs},
			} {
				rec.aggregate(ph.name, id, time.Duration(ph.ns))
				ps.phases += time.Duration(ph.ns)
			}
			if p == 0 {
				events += e1 - e0
			}
			if p == 0 || ps.cfg+ps.new+ps.run < best[i].cfg+best[i].new+best[i].run {
				best[i] = ps
			}

			id = rec.start("rarestfirst.Run", iter)
			_, err = rarestfirst.Run(sc)
			d := rec.end(id)
			if err != nil {
				return err
			}
			if p == 0 || d < whole[i] {
				whole[i], wholeID[i] = d, id
			}
		}
		rec.end(iter)
	}
	for i, ps := range best {
		cfgT += ps.cfg
		newT += ps.new
		runT += ps.run
		phaseT += ps.phases
		ev.add(ps.res)
		// A build time below the two runs' remaining noise reads 0.
		build := max(0, whole[i]-(ps.cfg+ps.new+ps.run))
		rec.aggregate("report.build", wholeID[i], build)
		buildT += build
	}
	if ev.arrivals != sumArrivals(inst.reports) {
		return fmt.Errorf("decomposed run saw %d arrivals, rarestfirst.Run %d: not the same simulation", ev.arrivals, sumArrivals(inst.reports))
	}

	if name == wSimCat {
		t0 := time.Now()
		aggs := rarestfirst.AggregateReports(inst.reports)
		out.set("report.aggregate_ms", ms(time.Since(t0)))
		if len(aggs) != len(inst.reports) {
			return fmt.Errorf("%d aggregates for %d reports", len(aggs), len(inst.reports))
		}
	}

	out.set("sim.engine.events", events)
	if events > 0 {
		out.set("sim.engine.ns_per_event", float64(runT.Nanoseconds())/events)
	}
	out.set("sim.engine.timers_reused", float64(ev.reused))
	out.set("sim.engine.heap_size_end", float64(ev.heapSize))
	out.set("sim.engine.lane_compute_ms", float64(ev.laneCompute)/1e6)
	out.set("sim.engine.lane_apply_ms", float64(ev.laneApply)/1e6)
	out.set("sim.engine.lane_batches", float64(ev.laneBatches))
	out.set("sim.engine.peak_lane_width", float64(ev.peakLane))
	out.set("sim.engine.merge_ms", float64(ev.merge)/1e6)
	out.set("sim.engine.merge_pops", float64(ev.mergePops))
	out.set("sim.engine.peak_shard_heap", float64(ev.peakShardHeap))
	out.set("sim.net.retime_flush_ms", float64(ev.retime)/1e6)
	out.set("sim.net.dirty_flushes", float64(ev.dirtyFlushes))
	out.set("sim.net.retime_batches", float64(ev.retimeBatches))
	out.set("sim.net.peak_shard_width", float64(ev.peakShardWidth))
	out.set("swarm.new_ms", ms(newT))
	out.set("swarm.run_ms", ms(runT))
	out.set("swarm.run_self_ms", ms(runT-phaseT))
	out.set("swarm.have_flush_ms", float64(ev.haveFlush)/1e6)
	out.set("swarm.arrivals", float64(ev.arrivals))
	out.set("scenario.config_us", us(cfgT))
	out.set("report.build_ms", ms(buildT))

	if name == wSimSteady {
		obs.SetDefault(nil)
		if err := b.overheadRows(out); err != nil {
			return err
		}
	}
	return rec.checkNesting()
}

func sumArrivals(reps []*rarestfirst.Report) int {
	n := 0
	for _, r := range reps {
		n += r.Arrivals
	}
	return n
}

// sumStats folds the per-scenario engine, net and swarm counters.
type sumStats struct {
	reused, laneBatches, mergePops, dirtyFlushes, retimeBatches uint64
	laneCompute, laneApply, merge, retime, haveFlush            uint64
	heapSize, peakLane, peakShardHeap, peakShardWidth, arrivals int
}

func (s *sumStats) add(res *swarm.Result) {
	e, n := res.Events, res.Net
	s.reused += e.Reused
	s.laneBatches += e.LaneBatches
	s.mergePops += e.MergePops
	s.dirtyFlushes += n.DirtyFlushes
	s.retimeBatches += n.RetimeBatches
	s.laneCompute += e.LaneComputeNs
	s.laneApply += e.LaneApplyNs
	s.merge += e.MergeNs
	s.retime += e.RetimeFlushNs
	s.haveFlush += e.HaveFlushNs
	s.heapSize += e.HeapSize
	s.peakLane = max(s.peakLane, e.PeakLaneWidth)
	s.peakShardHeap = max(s.peakShardHeap, e.PeakShardHeap)
	s.peakShardWidth = max(s.peakShardWidth, n.PeakShardWidth)
	s.arrivals += res.Arrivals
}

// overheadRows measures what each optional layer costs on the bench-scale
// steady torrent: wall time with the option set over wall time with it
// nil, base and option alternating so host drift hits both.
func (b *bench) overheadRows(out *layerValues) error {
	base := b.sz.overhead
	with := func(f func(*rarestfirst.Scenario)) rarestfirst.Scenario { sc := base; f(&sc); return sc }
	rows := []struct {
		metric string
		sc     rarestfirst.Scenario
		reg    bool
	}{
		{"overhead.metrics_ratio", base, true},
		{"overhead.debugchecks_ratio", with(func(sc *rarestfirst.Scenario) { sc.DebugChecks = true }), false},
		{"overhead.chaos_ratio", with(func(sc *rarestfirst.Scenario) { sc.Faults = "chaos" }), false},
		{"overhead.adversary_ratio", with(func(sc *rarestfirst.Scenario) { sc.Adversary = "poison25" }), false},
		{"overhead.crashes_ratio", with(func(sc *rarestfirst.Scenario) { sc.Crashes = "kill-restart" }), false},
	}
	timed := func(sc rarestfirst.Scenario) (float64, error) {
		t0 := time.Now()
		_, err := rarestfirst.Run(sc)
		return time.Since(t0).Seconds(), err
	}
	if _, err := timed(base); err != nil { // warm-up
		return err
	}
	for _, row := range rows {
		var off, on []float64
		for i := 0; i < b.sz.overheadIters; i++ {
			t, err := timed(base)
			if err != nil {
				return err
			}
			off = append(off, t)
			if row.reg {
				obs.SetDefault(obs.NewRegistry())
			}
			t, err = timed(row.sc)
			obs.SetDefault(nil)
			if err != nil {
				return fmt.Errorf("%s: %w", row.metric, err)
			}
			on = append(on, t)
		}
		out.set(row.metric, median(on)/median(off))
	}
	return nil
}
