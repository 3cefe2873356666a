package rarestfirst

// Determinism-contract tests for the runtime observability layer
// (internal/obs): enabling metrics must be observe-only. A metrics-on run
// consumes no engine RNG and reorders no events, so the golden digests
// must stay byte-identical to the recorded (metrics-off) goldens; the
// phase timers and counters populate on the side.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rarestfirst/internal/obs"
)

// TestGoldenDigestsWithMetricsEnabled re-runs the golden scenarios with a
// process-wide obs registry installed and checks the reports against the
// same goldens the metrics-off test uses. Any drift means a metric hook
// leaked into simulation behaviour.
func TestGoldenDigestsWithMetricsEnabled(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	for _, sc := range goldenScenarios() {
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Label, err)
		}
		if diff := checkGolden(t, sc.Label, rep); diff != "" {
			t.Errorf("%s: report drifted with metrics enabled; the obs layer "+
				"is observe-only: metric hooks must not consume engine RNG "+
				"or reorder events\n%s", sc.Label, diff)
		}
	}

	if v, ok := reg.Value("sim_events_total"); !ok || v == 0 {
		t.Errorf("sim_events_total = %v, %v; want nonzero after three runs", v, ok)
	}
	if v, ok := reg.Value("swarm_arrivals_total"); !ok || v == 0 {
		t.Errorf("swarm_arrivals_total = %v, %v; want nonzero", v, ok)
	}
}

// TestPhaseTimingsPopulated runs an obs-enabled scenario with grid-aligned
// choke rounds and checks the one timed phase, the retime flush, surfaces
// through Report.Events, plus the registry counters the swarm layer
// feeds.
func TestPhaseTimingsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	sc := Scenario{
		Label:        "obs-phases",
		TorrentID:    7,
		Scale:        BenchScale(),
		SeedOverride: 42,
		ChokeLanes:   true,
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	if ev := rep.Events; ev.RetimeFlushNs == 0 {
		t.Errorf("RetimeFlushNs = 0 with a registry; Net.Flush should be timed")
	}

	for _, name := range []string{
		"sim_events_total",
		"swarm_arrivals_total",
		"swarm_choke_rounds_total",
		"swarm_piece_completions_total",
		"swarm_announces_total",
	} {
		if v, ok := reg.Value(name); !ok || v == 0 {
			t.Errorf("%s = %v, %v; want nonzero", name, v, ok)
		}
	}
	if v, ok := reg.Value("sim_peak_lane_width"); ok {
		t.Errorf("sim_peak_lane_width = %v; no engine batches rounds, so no gauge should exist", v)
	}
}

// TestPhaseTimingsZeroWhenDisabled checks the disabled contract: without a
// registry the engine keeps its nil metric bundle and the phase fields
// stay zero (and, being omitempty, absent from the JSON line).
func TestPhaseTimingsZeroWhenDisabled(t *testing.T) {
	sc := Scenario{
		Label:        "obs-off",
		TorrentID:    7,
		Scale:        BenchScale(),
		SeedOverride: 42,
		ChokeLanes:   true,
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if ev := rep.Events; ev.RetimeFlushNs != 0 {
		t.Errorf("phase timers populated without a registry: %+v", ev)
	}
}

// TestRunnerHeartbeat exercises the -progress plumbing: a tiny heartbeat
// interval must produce at least the final "runs=n/n" line, with live
// counters appended when a registry is active.
func TestRunnerHeartbeat(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	var buf bytes.Buffer
	r := Runner{Workers: 1, Heartbeat: time.Millisecond, HeartbeatW: &buf}
	scs := []Scenario{{Label: "hb", TorrentID: 7, Scale: BenchScale(), SeedOverride: 1}}
	if _, err := r.Run(scs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "heartbeat: elapsed=") {
		t.Fatalf("no heartbeat lines in output:\n%s", out)
	}
	if !strings.Contains(out, "runs=1/1") {
		t.Errorf("final heartbeat line missing runs=1/1:\n%s", out)
	}
	if !strings.Contains(out, "events=") {
		t.Errorf("heartbeat missing live counters with registry active:\n%s", out)
	}
}
