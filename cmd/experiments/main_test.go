package main

import (
	"testing"

	"rarestfirst"
)

func TestSharesStr(t *testing.T) {
	if got := sharesStr(nil); got != "-" {
		t.Fatalf("empty = %q", got)
	}
	if got := sharesStr([]float64{0.5, 0.25}); got != "0.50 0.25" {
		t.Fatalf("got %q", got)
	}
}

func TestJSONSinkDisabledIsNoOp(t *testing.T) {
	s := &jsonSink{}
	s.add(nil)
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	if s.f != nil || s.runs != 0 {
		t.Fatalf("disabled sink opened a file or counted runs: %+v", s)
	}
}

// TestPerturbFlag: -perturb names select their kind from the catalog, fill
// only scenarios that have none of that kind, and a second name of one
// kind (or an unknown name) is rejected.
func TestPerturbFlag(t *testing.T) {
	with, err := parsePerturb("chaos, poison25")
	if err != nil {
		t.Fatal(err)
	}
	if with.Faults != "chaos" || with.Adversary != "poison25" || with.Crashes != "" {
		t.Fatalf("parsed %+v", with)
	}
	scs := []rarestfirst.Scenario{
		{Label: "bare"},
		{Label: "own-faults", Faults: "wan"},
		{Label: "own-crashes", Crashes: "kill-restart"},
	}
	applyPerturb(scs, with)
	want := []struct{ faults, crashes, adversary string }{
		{"chaos", "", "poison25"},
		{"wan", "", "poison25"},
		{"chaos", "kill-restart", "poison25"},
	}
	for i, w := range want {
		sc := scs[i]
		if sc.Faults != w.faults || sc.Crashes != w.crashes || sc.Adversary != w.adversary {
			t.Errorf("%s: got faults=%q crashes=%q adversary=%q, want %+v", sc.Label, sc.Faults, sc.Crashes, sc.Adversary, w)
		}
	}
	for _, bad := range []string{"chaos,wan", "kill-restart,kill-corrupt", "liar25,flood25", "no-such-plan", ""} {
		if _, err := parsePerturb(bad); err == nil {
			t.Errorf("-perturb %q accepted", bad)
		}
	}
}
