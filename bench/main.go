// Command bench is the repository's one benchmark: five named workloads
// over both backends, end-to-end metrics with regression bounds, a
// per-layer ledger and a traced run. See README.md in this directory.
//
//	go run ./bench -seed 1000                 every workload, tracing off
//	go run ./bench -seed 1000 -trace 1        traced run + layer probes
//	go run ./bench -out A.json                also store the results
//	go run ./bench -compare A.json B.json     apply the bounds to two sets
//	go run ./bench -manifest                  print BENCHMARK.json
//
// With -workload the command runs that one workload and prints, as its
// last line, the single JSON object BENCHMARK.json's contract asks for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"rarestfirst/internal/scenario"
)

// bench carries what every workload needs.
type bench struct {
	sz        sizes
	outDir    string // traces and scratch files
	inProcess bool   // run an untraced run's slices here, not in child processes
}

// layerValues collects the per-layer ledger of one traced run and
// rejects a name set twice or not in the catalogue.
type layerValues struct {
	vals map[string]float64
	errs []error
}

func (l *layerValues) set(name string, v float64) {
	if l.vals == nil {
		l.vals = map[string]float64{}
	}
	if _, dup := l.vals[name]; dup {
		l.errs = append(l.errs, fmt.Errorf("metric %s emitted twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		l.errs = append(l.errs, fmt.Errorf("metric %s is %v", name, v))
	}
	l.vals[name] = v
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the object the contract's last
// output line holds.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (b *bench) newInstance(name string, seed int64) (instance, error) {
	switch name {
	case wSimSteady, wSimFlash, wSimCat:
		return b.newSim(name, seed)
	case wLive:
		return b.newLive(seed)
	case wTracker:
		return b.newTracker(seed)
	}
	return nil, fmt.Errorf("no workload %q", name)
}

// heapSampleEvery is the heap-watermark period: iterations of the socket
// workloads last a fraction of a second, so they sample faster.
func heapSampleEvery(name string) time.Duration {
	if name == wLive || name == wTracker {
		return 5 * time.Millisecond
	}
	return 0 // obs.DefaultMemInterval
}

// iterResult is one timed iteration as a slice reports it: timings in
// reference seconds (calibrate.go).
type iterResult struct {
	Wall       float64 `json:"wall"`
	CPU        float64 `json:"cpu"`
	Ops        float64 `json:"ops"`
	Mallocs    float64 `json:"mallocs"`
	AllocMB    float64 `json:"alloc_mb"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
}

// sliceResult is one slice of an untraced run: one set-up and its share
// of the run's timed iterations, all in one process.
type sliceResult struct {
	Setup     float64      `json:"setup"` // reference seconds
	Iters     []iterResult `json:"iters"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Err       string       `json:"err,omitempty"`
}

// runSlice sets the workload up once on inputs derived from (seed,
// slice) and times iterations of that instance until seconds have
// passed. Every timed region sits between two runs of the reference
// kernel.
func (b *bench) runSlice(name string, seed int64, slice int, seconds float64) (res sliceResult) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "%s/%d: %v\n", name, slice, err)
		if res.Err == "" {
			res.Err = err.Error()
		}
	}
	cal, err := newCalibrator(kernelOf(name), b.sz.probeScale)
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		fail(err)
		return res
	}
	defer cal.close()

	runtime.GC()
	before := cal.run()
	t0 := time.Now()
	inst, err := b.newInstance(name, scenario.MixSeed(seed, slice))
	raw := time.Since(t0).Seconds()
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		fail(fmt.Errorf("set-up: %w", err))
		return res
	}
	defer inst.close()
	after := cal.run()
	host := cal.factor(before, after)
	res.Setup = raw / host.wall
	fmt.Fprintf(os.Stderr, "%s/%d: set-up %.4fs raw, host x%.3f\n", name, slice, raw, host.wall)
	before = after

	start := time.Now()
	for {
		// Stop when the next iteration would run past the budget.
		elapsed := time.Since(start).Seconds()
		if n := len(res.Iters); n >= 1 && elapsed+elapsed/float64(n) > seconds {
			break
		}
		s, err := measure(inst, heapSampleEvery(name))
		if err != nil {
			fail(fmt.Errorf("iteration %d: %w", len(res.Iters)+1, err))
			if s.attempted == 0 { // the iteration did not get as far as counting
				res.Attempted++
				res.Failed++
				break
			}
		}
		after := cal.run()
		host := cal.factor(before, after)
		before = after
		res.Attempted += s.attempted
		res.Failed += s.failed
		res.Iters = append(res.Iters, iterResult{
			Wall: s.wall / host.wall, CPU: s.cpu / host.cpu, Ops: s.ops,
			Mallocs: s.mallocs, AllocMB: s.allocBytes / (1 << 20), PeakHeapMB: s.peakHeap / (1 << 20),
		})
		fmt.Fprintf(os.Stderr, "%s/%d: iteration %d: wall %.4fs cpu %.4fs raw, host x%.3f wall x%.3f cpu, allocs %.0f peak heap %.1f MB\n",
			name, slice, len(res.Iters), s.wall, s.cpu, host.wall, host.cpu, s.mallocs, s.peakHeap/(1<<20))
	}
	return res
}

// spawnSlice runs one slice in a fresh process of this binary. How fast
// a process runs depends for its whole life on where its pages happened
// to land (the same seed in ten processes spread twice as wide as ten
// windows of one process), so a run measures several processes.
func (b *bench) spawnSlice(name string, seed int64, slice int, seconds float64) (res sliceResult) {
	self, err := os.Executable()
	if err != nil {
		return sliceResult{Attempted: 1, Failed: 1, Err: err.Error()}
	}
	cmd := exec.Command(self, "-slice", strconv.Itoa(slice), "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-outdir", b.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if jerr := json.Unmarshal(out, &res); jerr != nil {
		return sliceResult{Attempted: 1, Failed: 1, Err: fmt.Sprintf("slice %d: %v: %v", slice, err, jerr)}
	}
	return res
}

// runUntraced measures the end-to-end metrics: setupReps slices, each a
// fresh process (in this process when b.inProcess) with its own set-up,
// share the run's seconds. setup_s is the median over the set-ups, every
// other metric the median over all slices' iterations.
func (b *bench) runUntraced(name string, seed int64, seconds float64) (result, error) {
	res := result{Correct: true}
	var setups []float64
	var iters []iterResult
	var firstErr error
	for slice := 0; slice < b.sz.setupReps; slice++ {
		run := b.spawnSlice
		if b.inProcess {
			run = b.runSlice
		}
		sr := run(name, seed, slice, seconds/float64(b.sz.setupReps))
		if sr.Err != "" {
			res.Correct = false
			if firstErr == nil {
				firstErr = errors.New(sr.Err)
			}
		}
		res.Attempted += sr.Attempted
		res.Failed += sr.Failed
		if sr.Setup > 0 {
			setups = append(setups, sr.Setup)
		}
		iters = append(iters, sr.Iters...)
	}
	if len(iters) == 0 {
		return res, firstErr
	}
	med := func(f func(iterResult) float64) float64 { return medianOf(iters, f) }
	vals := map[string]float64{
		"setup_s":         median(setups),
		"wall_s":          med(func(s iterResult) float64 { return s.Wall }),
		"cpu_s":           med(func(s iterResult) float64 { return s.CPU }),
		"ops_per_s":       med(func(s iterResult) float64 { return s.Ops / s.Wall }),
		"allocs_per_op":   med(func(s iterResult) float64 { return s.Mallocs }),
		"alloc_mb_per_op": med(func(s iterResult) float64 { return s.AllocMB }),
		"peak_heap_mb":    med(func(s iterResult) float64 { return s.PeakHeapMB }),
	}
	res.Metrics = fill(endToEnd, vals)
	return res, firstErr
}

// runTraced produces the per-layer ledger: the workload once under an
// obs registry with harness spans, plus the layer probes.
func (b *bench) runTraced(name string, seed int64) (result, error) {
	rec := newRecorder(name)
	var out layerValues
	var err error
	switch name {
	case wSimSteady, wSimFlash, wSimCat:
		err = b.traceSim(name, seed, rec, &out)
	case wLive:
		err = b.traceLive(seed, rec, &out)
	case wTracker:
		err = b.traceTracker(seed, rec, &out)
	default:
		err = fmt.Errorf("no workload %q", name)
	}
	if err == nil {
		err = b.layerProbes(seed, &out)
	}
	if err == nil {
		err = b.hostProbe(&out)
	}
	if werr := rec.write(b.outDir); err == nil {
		err = werr
	}
	for _, e := range out.errs {
		if err == nil {
			err = e
		}
	}
	// Every metric this workload's traced run measures is emitted, and
	// nothing else.
	known := 0
	for _, d := range perLayer {
		_, emitted := out.vals[d.Name]
		if emitted {
			known++
		}
		if emitted != d.measuredOn(name) && err == nil {
			err = fmt.Errorf("metric %s: emitted=%v on %s, catalogue says %v", d.Name, emitted, name, !emitted)
		}
	}
	if known != len(out.vals) && err == nil {
		err = fmt.Errorf("%d emitted metrics are not in the catalogue", len(out.vals)-known)
	}
	res := result{Correct: err == nil, Attempted: 1, Metrics: fill(perLayer, out.vals)}
	if err != nil {
		res.Failed = 1
	}
	return res, err
}

// hostProbe records how fast the host ran the reference kernels, so the
// ledger's raw timings can be read against the state of the host.
func (b *bench) hostProbe(out *layerValues) error {
	for _, k := range []struct {
		kind   kernelKind
		metric string
	}{{memoryBound, "host.memory_slowdown"}, {computeBound, "host.compute_slowdown"}} {
		cal, err := newCalibrator(k.kind, b.sz.probeScale)
		if err != nil {
			return err
		}
		var walls []float64
		for i := 0; i < 5; i++ {
			walls = append(walls, cal.run().wall)
		}
		cal.close()
		m := calTime{wall: median(walls)}
		out.set(k.metric, cal.factor(m, m).wall)
	}
	return nil
}

// fill renders every metric of defs; one the run did not measure reads 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and end with the contract's JSON line (default: all five, as a table)")
		seed     = flag.Int64("seed", 1000, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run times iterations")
		trace    = flag.Int("trace", 0, "1: traced run and layer probes (per-layer metrics); 0: end-to-end metrics")
		out      = flag.String("out", "", "also write the results of a full run to this JSON file")
		outDir   = flag.String("outdir", "bench/out", "directory for trace-<workload>.jsonl and scratch files")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: every end-to-end metric x workload against its bound")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json generated from the catalogue")
		slice    = flag.Int("slice", -1, "internal: run this one slice of -workload's untraced run and print it as JSON")
	)
	flag.Parse()

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	if *slice >= 0 {
		b := &bench{sz: fullSizes(), outDir: *outDir}
		line, _ := json.Marshal(b.runSlice(*workload, *seed, *slice, *seconds))
		fmt.Printf("%s\n", line)
		return
	}
	fmt.Printf("bench: %s %s/%s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, procs, runtime.NumCPU(), *seed, *seconds, *trace)
	b := &bench{sz: fullSizes(), outDir: *outDir}

	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	set := resultSet{Go: runtime.Version(), GOMAXPROCS: procs, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Workloads: map[string]result{}}
	failed := false
	for _, name := range names {
		var res result
		var err error
		if *trace == 1 {
			res, err = b.runTraced(name, *seed)
		} else {
			res, err = b.runUntraced(name, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			failed = true
		}
		set.Workloads[name] = res
		if *workload == "" {
			printTable(os.Stdout, name, res, *trace == 1)
		}
	}
	if *out != "" {
		if err := set.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *workload != "" {
		if res := set.Workloads[*workload]; res.Metrics != nil {
			line, _ := json.Marshal(res)
			fmt.Printf("%s\n", line)
		}
	}
	if failed {
		os.Exit(1)
	}
}
