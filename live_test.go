package rarestfirst

// Live-swarm lab acceptance tests: registered live-* scenarios must run
// real TCP swarms over loopback to completion and emit *Reports through
// the exact same AggregateReports/JSONL path as simulated runs, and
// RunSuite on a live suite must produce a sim-vs-live cross-validation
// section. These are the slowest tests of the package (real sockets, real
// choke rounds); the CI live-smoke job runs them under -race.

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
)

// TestLiveSuitesEndToEnd drives two registered live-* families through
// Runner.RunSuite: each pairs a sim twin with a real-TCP loopback swarm.
func TestLiveSuitesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback swarms take tens of seconds")
	}
	t.Parallel()
	// The subtests run in parallel, after this body returns; a cleanup
	// runs only once they have all finished, so the bar is checked there.
	var liveCompleted atomic.Int32
	t.Cleanup(func() {
		if n := liveCompleted.Load(); n < 2 {
			t.Errorf("only %d live swarms completed; the acceptance bar is 2", n)
		}
	})
	for _, name := range []string{"live-casestudy", "live-flashcrowd"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			suite, err := NewSuite(name, SuiteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			nLive := 0
			for _, sc := range suite.Scenarios {
				if sc.Live {
					nLive++
				}
			}
			if nLive == 0 || nLive == len(suite.Scenarios) {
				t.Fatalf("suite %s must mix backends: %d live of %d", name, nLive, len(suite.Scenarios))
			}

			sr, err := Runner{}.RunSuite(suite)
			if err != nil {
				t.Fatal(err)
			}

			for i, rep := range sr.Reports {
				if rep == nil {
					t.Fatalf("scenario %d produced no report", i)
				}
				if !suite.Scenarios[i].Live {
					continue
				}
				// The live report must be a full *Report: figure series
				// populated and serializable through the shared JSONL sink.
				if !rep.Scenario.Live {
					t.Fatalf("live run %d lost its backend flag", i)
				}
				if !rep.LocalCompleted {
					t.Errorf("live swarm %d did not complete its download", i)
				} else {
					liveCompleted.Add(1)
				}
				if len(rep.Availability) == 0 || rep.BlockCDF.N == 0 {
					t.Errorf("live report %d missing figure series: %d avail samples, %d blocks",
						i, len(rep.Availability), rep.BlockCDF.N)
				}
				line, err := rep.JSONLine()
				if err != nil {
					t.Fatalf("live report %d JSONL: %v", i, err)
				}
				var decoded map[string]any
				if err := json.Unmarshal(line, &decoded); err != nil {
					t.Fatalf("live report %d JSONL roundtrip: %v", i, err)
				}
			}

			// Aggregation groups sim and live under the shared label, and
			// the suite report pairs them for cross-validation.
			if len(sr.Aggregates) != 2 {
				t.Fatalf("want 2 aggregation groups (sim + live), got %d: %+v",
					len(sr.Aggregates), sr.Aggregates)
			}
			if sr.Aggregates[0].Live == sr.Aggregates[1].Live {
				t.Fatalf("aggregates did not split by backend: %+v", sr.Aggregates)
			}
			if len(sr.CrossValidation) != 1 {
				t.Fatalf("want 1 cross-validation pair, got %d", len(sr.CrossValidation))
			}
			pair := sr.CrossValidation[0]
			if pair.Sim.Live || !pair.Live.Live || pair.Sim.Label != pair.Live.Label {
				t.Fatalf("cross-validation pair malformed: %+v", pair)
			}

			var buf bytes.Buffer
			sr.WriteText(&buf)
			out := buf.String()
			if !strings.Contains(out, "sim vs live cross-validation") {
				t.Fatalf("suite text missing cross-validation section:\n%s", out)
			}
			if !strings.Contains(out, "(live)") {
				t.Fatalf("suite text does not mark the live aggregate:\n%s", out)
			}
		})
	}
}

// TestLiveScenarioRejectsUnsupportedKnobs: a live scenario with a sim-only
// ablation must fail loudly, not silently run the default algorithm.
func TestLiveScenarioRejectsUnsupportedKnobs(t *testing.T) {
	_, err := Run(Scenario{TorrentID: 10, Live: true, Picker: PickerRandom})
	if err == nil {
		t.Fatal("live run accepted a sim-only picker")
	}
}
