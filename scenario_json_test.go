package rarestfirst

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestScenarioJSONShape pins the JSON encoding of Scenario: field names,
// order and which zero fields omitempty drops. Every Report line embeds
// its Scenario, so this is the JSONL schema; the goldens only cover the
// fields golden scenarios set.
func TestScenarioJSONShape(t *testing.T) {
	full := Scenario{
		Label:               "l",
		TorrentID:           7,
		Live:                true,
		Scale:               Scale{MaxPeers: 1, MaxContentMB: 2, MaxPieces: 3, Duration: 4, Warmup: 5, Seed: 6},
		Picker:              PickerRandom,
		SeedChoke:           SeedChokeOld,
		LeecherChoke:        LeecherChokeTitForTat,
		TFTDeficitBytes:     8,
		FreeRiderFraction:   0.5,
		LocalFreeRider:      true,
		SmartSeedServe:      true,
		DisableRandomFirst:  true,
		BoostNewcomers:      true,
		InitialSeedLeavesAt: 9,
		SeedOverride:        10,
		ChokeLanes:          true,
		HeapShards:          11,
		BatchHaves:          true,
		Faults:              "wan",
		Adversary:           "poison25",
		AdversaryNoBan:      true,
		Crashes:             "kill-restart",
		DebugChecks:         true,
		ChurnScale:          1.5,
		SeedUpScale:         2.5,
		AbortScale:          3.5,
	}
	v := reflect.ValueOf(full)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("full scenario leaves %s zero; set it and re-record the expected line", v.Type().Field(i).Name)
		}
	}
	for _, c := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"full", full, `{"Label":"l","TorrentID":7,"Live":true,"Scale":{"MaxPeers":1,"MaxContentMB":2,"MaxPieces":3,"Duration":4,"Warmup":5,"Seed":6},"Picker":"random","SeedChoke":"old","LeecherChoke":"tit-for-tat","TFTDeficitBytes":8,"FreeRiderFraction":0.5,"LocalFreeRider":true,"SmartSeedServe":true,"DisableRandomFirst":true,"BoostNewcomers":true,"InitialSeedLeavesAt":9,"SeedOverride":10,"ChokeLanes":true,"HeapShards":11,"BatchHaves":true,"Faults":"wan","Adversary":"poison25","AdversaryNoBan":true,"Crashes":"kill-restart","DebugChecks":true,"ChurnScale":1.5,"SeedUpScale":2.5,"AbortScale":3.5}`},
		{"zero", Scenario{}, `{"Label":"","TorrentID":0,"Scale":{"MaxPeers":0,"MaxContentMB":0,"MaxPieces":0,"Duration":0,"Warmup":0,"Seed":0},"Picker":"","SeedChoke":"","LeecherChoke":"","TFTDeficitBytes":0,"FreeRiderFraction":0,"LocalFreeRider":false,"SmartSeedServe":false,"DisableRandomFirst":false,"BoostNewcomers":false,"InitialSeedLeavesAt":0,"SeedOverride":0,"ChurnScale":0,"SeedUpScale":0,"AbortScale":0}`},
	} {
		got, err := json.Marshal(c.sc)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%s scenario JSON changed:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
