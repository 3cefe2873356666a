package rarestfirst

// Chaos-lab acceptance tests: the chaos-* registry families must survive
// a tracker blackout mid-flash-crowd, injected connection faults and a
// failing seed on BOTH backends, land in the cross-validation table, and
// report fault counters. Determinism is asserted strictly on the sim twin
// (engine-RNG fault draws); the live side is asserted up to schedule
// determinism (real TCP timing varies, the injected-fault schedule does
// not).

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestChaosSimDeterministic: two same-seed runs of the chaos sim spec
// must produce identical, nonzero fault-counter totals.
func TestChaosSimDeterministic(t *testing.T) {
	sc := Scenario{
		TorrentID:    8,
		Faults:       "chaos",
		Scale:        Scale{MaxPeers: 6, MaxContentMB: 1, MaxPieces: 32, Duration: 12},
		SeedOverride: 42,
	}
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Faults) == 0 {
		t.Fatal("chaos sim run produced no fault counters")
	}
	if !reflect.DeepEqual(r1.Faults, r2.Faults) {
		t.Fatalf("same-seed chaos runs disagree on faults:\n  run 1: %v\n  run 2: %v", r1.Faults, r2.Faults)
	}
	// The plan's marquee faults must actually fire at this scale.
	if r1.Faults["swarm_announce_fail"] == 0 {
		t.Errorf("tracker blackout injected no announce failures: %v", r1.Faults)
	}
	if r1.Faults["swarm_dial_fail"] == 0 && r1.Faults["swarm_conn_reset"] == 0 {
		t.Errorf("no connection faults fired: %v", r1.Faults)
	}

	// A different seed must reshuffle the schedule (not necessarily every
	// counter, but the totals cannot all coincide byte-for-byte with the
	// trajectory unchanged — compare the full digest-relevant report).
	sc.SeedOverride = 43
	r3, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Faults, r3.Faults) && r1.LocalDownloadSeconds == r3.LocalDownloadSeconds {
		t.Errorf("different seeds produced identical chaos trajectories")
	}
}

// TestChaosFaultPlanValidation: an unknown fault plan must fail loudly.
func TestChaosFaultPlanValidation(t *testing.T) {
	_, err := Run(Scenario{TorrentID: 8, Faults: "no-such-plan"})
	if err == nil || !strings.Contains(err.Error(), "no-such-plan") {
		t.Fatalf("unknown fault plan accepted: %v", err)
	}
}

// TestChaosSuiteEndToEnd drives the chaos-flashcrowd family through
// RunSuite: a tracker blackout mid-flash-crowd with connection resets and
// a slow, failing seed, on the simulator and on real TCP loopback.
func TestChaosSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos loopback swarm takes tens of seconds")
	}
	t.Parallel()
	suite, err := NewSuite("chaos-flashcrowd", SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range suite.Scenarios {
		if sc.Faults != "chaos" {
			t.Fatalf("scenario %d carries fault plan %q, want \"chaos\"", i, sc.Faults)
		}
	}

	sr, err := Runner{}.RunSuite(suite)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range sr.Reports {
		if rep == nil {
			t.Fatalf("chaos scenario %d produced no report", i)
		}
		// "Completes" under chaos means the run finishes and reports; the
		// seed fails mid-run, so the local download may legitimately not.
		if len(rep.Faults) == 0 {
			t.Errorf("chaos run %d (live=%v) reported no fault counters", i, rep.Scenario.Live)
		}
	}
	if len(sr.CrossValidation) != 1 {
		t.Fatalf("want 1 cross-validation pair, got %d", len(sr.CrossValidation))
	}
	pair := sr.CrossValidation[0]
	if pair.Sim.Live || !pair.Live.Live || pair.Sim.Label != pair.Live.Label {
		t.Fatalf("cross-validation pair malformed: %+v", pair)
	}
	if len(pair.Sim.Faults) == 0 || len(pair.Live.Faults) == 0 {
		t.Fatalf("cross-validation aggregates missing faults: sim=%v live=%v",
			pair.Sim.Faults, pair.Live.Faults)
	}

	var buf bytes.Buffer
	sr.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "faults:") {
		t.Fatalf("suite text missing fault counters:\n%s", out)
	}
}
