package cliutil

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rarestfirst"
)

func TestParseTorrentsAll(t *testing.T) {
	ids, err := ParseTorrents("all")
	if err != nil || ids != nil {
		t.Fatalf("ParseTorrents(all) = %v, %v; want nil sentinel", ids, err)
	}
}

func TestParseTorrentsList(t *testing.T) {
	ids, err := ParseTorrents("7, 8,10")
	if err != nil || len(ids) != 3 || ids[0] != 7 || ids[2] != 10 {
		t.Fatalf("ParseTorrents = %v, %v", ids, err)
	}
}

func TestParseTorrentsErrors(t *testing.T) {
	for _, in := range []string{"", "0", "27", "x", "7,,8"} {
		if _, err := ParseTorrents(in); err == nil {
			t.Errorf("ParseTorrents(%q) accepted", in)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	seeds, err := ParseSeeds("")
	if err != nil || seeds != nil {
		t.Fatalf("empty = %v, %v", seeds, err)
	}
	seeds, err = ParseSeeds(" 1, -2,3 ")
	if err != nil || len(seeds) != 3 || seeds[1] != -2 {
		t.Fatalf("ParseSeeds = %v, %v", seeds, err)
	}
	for _, in := range []string{"0", "x", "1,,2"} {
		if _, err := ParseSeeds(in); err == nil {
			t.Errorf("ParseSeeds(%q) accepted", in)
		}
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("bench"); err != nil || s.MaxPeers == 0 {
		t.Fatalf("bench = %+v, %v", s, err)
	}
	if s, err := ParseScale("default"); err != nil || s.MaxPeers == 0 {
		t.Fatalf("default = %+v, %v", s, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestEmptyScaleKeepsSuiteScale: without -scale, a suite with its own
// size runs at it; -scale default still means DefaultScale.
func TestEmptyScaleKeepsSuiteScale(t *testing.T) {
	scale, err := ParseScale("")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := rarestfirst.NewSuite("flash-crowd-20k", rarestfirst.SuiteOptions{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if got := suite.Scenarios[0].Scale.MaxPeers; got != 20000 {
		t.Fatalf("flash-crowd-20k without -scale caps at %d peers, want 20000", got)
	}
	def, _ := ParseScale("default")
	suite, err = rarestfirst.NewSuite("flash-crowd-20k", rarestfirst.SuiteOptions{Scale: def})
	if err != nil {
		t.Fatal(err)
	}
	if got := suite.Scenarios[0].Scale; got != rarestfirst.DefaultScale() {
		t.Fatalf("-scale default expanded to %+v", got)
	}
}

func TestPrintSuites(t *testing.T) {
	var b strings.Builder
	PrintSuites(&b)
	if !strings.Contains(b.String(), "catalog") || !strings.Contains(b.String(), "churn") {
		t.Fatalf("suite listing:\n%s", b.String())
	}
}

func TestWriteReportsJSONL(t *testing.T) {
	sc := rarestfirst.Scenario{TorrentID: 3, Scale: tinyTestScale(), SeedOverride: 5}
	rep, err := rarestfirst.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// A nil report (failed run) must be skipped, not emitted as "null".
	if err := WriteReportsJSONL(&buf, []*rarestfirst.Report{rep, nil, rep}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSON lines, want 2", len(lines))
	}
	for i, line := range lines {
		var decoded map[string]any
		if err := json.Unmarshal([]byte(line), &decoded); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if decoded["TorrentID"] != float64(3) {
			t.Fatalf("line %d: TorrentID = %v", i, decoded["TorrentID"])
		}
	}
}

func tinyTestScale() rarestfirst.Scale {
	s := rarestfirst.BenchScale()
	s.MaxPeers = 30
	s.MaxContentMB = 4
	s.MaxPieces = 16
	s.Duration = 600
	s.Warmup = 200
	return s
}
