package rarestfirst

// Byzantine-hardening acceptance tests: the adv-* suites must run their
// sim and live rows to completion with adversaries in the swarm and the
// invariant checker on, the fault/ban counters must surface through the
// shared Report path on both backends, and the invariant checker must not
// move a single golden digest.

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestGoldenDigestsUnchangedWithDebugChecks pins the invariant checker's
// purity contract at the public API: every golden scenario re-run with
// DebugChecks on must hash to the recorded golden digest (after
// normalizing the scenario flag itself out of the serialization). A
// checker that perturbs one RNG draw or availability count fails this.
func TestGoldenDigestsUnchangedWithDebugChecks(t *testing.T) {
	t.Parallel()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	for _, sc := range goldenScenarios() {
		sc.DebugChecks = true
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Label, err)
		}
		// The flag is part of the serialized scenario; clear it so the
		// digest isolates the trajectory.
		rep.Scenario.DebugChecks = false
		if got := reportDigest(t, rep); got != want[sc.Label] {
			t.Errorf("%s: digest changed with DebugChecks on\n  got  %s\n  want %s\n"+
				"the invariant checker must be a pure read", sc.Label, got, want[sc.Label])
		}
	}
}

// TestAdvSuiteEndToEnd drives the three adv-* Byzantine families through
// Runner.RunSuite: sim and real-TCP rows under one label, adversaries in
// both swarms, invariant checker on, fault counters cross-validated.
func TestAdvSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback swarms take tens of seconds")
	}
	t.Parallel()
	for _, name := range []string{"adv-poison", "adv-liar", "adv-flood"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			suite, err := NewSuite(name, SuiteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sr, err := Runner{}.RunSuite(suite)
			if err != nil {
				t.Fatal(err)
			}
			var simFaults, nobanFaults map[string]int
			for i, rep := range sr.Reports {
				if rep == nil {
					t.Fatalf("scenario %d produced no report", i)
				}
				sc := suite.Scenarios[i]
				if sc.Live {
					// The honest instrumented leecher completes verified
					// content despite the adversaries.
					if !rep.LocalCompleted {
						t.Errorf("live %s: local peer did not complete", sc.Label)
					}
					continue
				}
				if !rep.LocalCompleted {
					t.Errorf("sim %s: local peer did not complete", sc.Label)
				}
				if sc.AdversaryNoBan {
					nobanFaults = rep.Faults
				} else if simFaults == nil {
					simFaults = rep.Faults
				}
			}
			if simFaults == nil {
				t.Fatal("no sim report captured")
			}
			switch name {
			case "adv-poison":
				if simFaults["swarm_piece_hash_fail"] == 0 || simFaults["swarm_peer_banned_poison"] == 0 {
					t.Errorf("sim poison faults missing: %v", simFaults)
				}
				if nobanFaults == nil {
					t.Fatal("adv-poison suite has no NoBan measurement row")
				}
				if nobanFaults["swarm_wasted_bytes"] == 0 {
					t.Errorf("NoBan row recorded no wasted bytes: %v", nobanFaults)
				}
				if nobanFaults["swarm_peer_banned_poison"] != 0 {
					t.Errorf("NoBan row recorded bans: %v", nobanFaults)
				}
			case "adv-liar":
				if simFaults["swarm_fake_have_timeout"] == 0 {
					t.Errorf("sim liar faults missing: %v", simFaults)
				}
			case "adv-flood":
				if simFaults["swarm_flood_announce"] == 0 {
					t.Errorf("sim flood faults missing: %v", simFaults)
				}
			}

			// Sim and live rows sharing the label must pair up in the
			// cross-validation table.
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
			if !strings.Contains(out, "faults:") {
				t.Fatalf("suite text missing fault counters:\n%s", out)
			}
		})
	}
}
