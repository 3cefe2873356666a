package rarestfirst

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rarestfirst/internal/obs"
	"rarestfirst/internal/scenario"
)

// SuiteInfo names one registered scenario family.
type SuiteInfo struct {
	Name        string
	Description string
}

// Suites lists the registered scenario families, sorted by name. Each can
// be expanded into a runnable Suite with NewSuite.
func Suites() []SuiteInfo {
	defs := scenario.All()
	out := make([]SuiteInfo, 0, len(defs))
	for _, d := range defs {
		out = append(out, SuiteInfo{Name: d.Name, Description: d.Description})
	}
	return out
}

// SuiteNames lists the registered scenario families' names, sorted.
func SuiteNames() []string { return scenario.Names() }

// SuiteOptions parameterize the expansion of a registered scenario family
// into concrete Scenarios. It is scenario.Options, declared once there.
type SuiteOptions = scenario.Options

// Suite is an ordered batch of scenarios run and aggregated together.
type Suite struct {
	Name        string
	Description string
	Scenarios   []Scenario
}

// NewSuite expands the named scenario family (see Suites) under the
// options. The scenario order is deterministic.
func NewSuite(name string, o SuiteOptions) (Suite, error) {
	def, ok := scenario.Lookup(name)
	if !ok {
		return Suite{}, fmt.Errorf("rarestfirst: no scenario suite %q (have %v)", name, scenario.Names())
	}
	return Suite{Name: def.Name, Description: def.Description, Scenarios: def.Scenarios(o)}, nil
}

// Runner executes scenarios across a bounded worker pool. Every scenario
// is an independent deterministic simulation, so fanning them out changes
// wall-clock time only: results are identical to serial execution and are
// returned in input order regardless of completion order.
type Runner struct {
	// Workers bounds the pool; <= 0 means runtime.NumCPU().
	Workers int
	// Heartbeat, when positive, emits one progress line to HeartbeatW
	// every interval while Run executes (plus a final line at
	// completion): elapsed wall time, finished/total scenarios, and —
	// when a process-wide obs registry is active — live counters
	// (events fired, arrivals). Long batches like the full-size
	// huge-swarm suite then narrate themselves instead of running
	// silent.
	Heartbeat time.Duration
	// HeartbeatW receives heartbeat lines; nil means os.Stderr.
	HeartbeatW io.Writer
}

func (r Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes the scenarios and returns their reports in input order.
// If any scenario fails, it returns the successful reports alongside the
// joined errors (failed slots are nil).
func (r Runner) Run(scs []Scenario) ([]*Report, error) {
	reports := make([]*Report, len(scs))
	errs := make([]error, len(scs))
	var done atomic.Int64
	stopBeat := r.startHeartbeat(&done, len(scs))
	defer stopBeat()
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < r.workers(len(scs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rep, err := Run(scs[i])
				done.Add(1)
				if err != nil {
					errs[i] = fmt.Errorf("scenario %d (torrent %d %s): %w", i, scs[i].TorrentID, scs[i].Label, err)
					continue
				}
				reports[i] = rep
			}
		}()
	}
	for i := range scs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return reports, errors.Join(errs...)
}

// startHeartbeat launches the progress ticker when Heartbeat is set; the
// returned stop function prints the final line and joins the goroutine.
// With Heartbeat <= 0 both are no-ops.
func (r Runner) startHeartbeat(done *atomic.Int64, total int) func() {
	if r.Heartbeat <= 0 {
		return func() {}
	}
	w := r.HeartbeatW
	if w == nil {
		w = os.Stderr
	}
	start := time.Now()
	stop := make(chan struct{})
	finished := make(chan struct{})
	beat := func() {
		line := fmt.Sprintf("heartbeat: elapsed=%s runs=%d/%d",
			time.Since(start).Round(100*time.Millisecond), done.Load(), total)
		if reg := obs.Active(); reg != nil {
			if v, ok := reg.Value("sim_events_total"); ok {
				line += fmt.Sprintf(" events=%.0f", v)
			}
			if v, ok := reg.Value("swarm_arrivals_total"); ok {
				line += fmt.Sprintf(" arrivals=%.0f", v)
			}
		}
		fmt.Fprintln(w, line)
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(r.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				beat()
			}
		}
	}()
	return func() {
		close(stop)
		<-finished
		beat() // final line: runs=total, closing counter values
	}
}

// RunSuite executes the suite, aggregates its reports, and — when the
// suite pairs live scenarios with sim twins under shared labels — derives
// the sim-vs-live cross-validation section.
func (r Runner) RunSuite(s Suite) (*SuiteReport, error) {
	reports, err := r.Run(s.Scenarios)
	if err != nil {
		return nil, err
	}
	aggs := AggregateReports(reports)
	return &SuiteReport{
		Name:            s.Name,
		Description:     s.Description,
		Reports:         reports,
		Aggregates:      aggs,
		CrossValidation: crossValidate(aggs),
	}, nil
}
