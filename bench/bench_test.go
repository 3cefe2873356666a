package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesManifest pins BENCHMARK.json to the catalogue it is
// generated from, and the catalogue to the manifest's naming rules.
func TestCatalogueMatchesManifest(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate with `go run ./bench -manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at the smoke
// sizing: each emits exactly its metrics, finite, and fails nothing.
// runTraced itself rejects a metric emitted twice, missing, or outside
// the catalogue.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once; a few seconds")
	}
	b := &bench{sz: smokeSizes(), outDir: t.TempDir(), inProcess: true}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := b.runUntraced(w.Name, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, endToEnd, true)

			res, err = b.runTraced(w.Name, 7)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			checkMetrics(t, res, perLayer, false)
			if _, err := os.Stat(filepath.Join(b.outDir, "trace-"+w.Name+".jsonl")); err != nil {
				t.Error(err)
			}
		})
	}
}

func checkMetrics(t *testing.T, res result, defs []metricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v %q", d.Name, m.Value, m.Unit)
		case positive && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
		}
	}
}

// TestCompare checks the verdicts: within bound passes in both
// directions of "better", past it regresses, a failed operation fails.
func TestCompare(t *testing.T) {
	mk := func(scale float64, failed int) resultSet {
		set := resultSet{Workloads: map[string]result{}}
		for _, w := range workloads {
			vals := map[string]float64{}
			for _, d := range endToEnd {
				vals[d.Name] = 100 * scale
				if d.Better == higher {
					vals[d.Name] = 100 / scale
				}
			}
			set.Workloads[w.Name] = result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: fill(endToEnd, vals)}
		}
		return set
	}
	dir := t.TempDir()
	write := func(name string, s resultSet) string {
		p := filepath.Join(dir, name)
		if err := s.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk(1, 0))
	for _, c := range []struct {
		name string
		set  resultSet
		ok   bool
	}{
		{"same", mk(1, 0), true},
		{"4% worse", mk(1.04, 0), true},
		{"30% worse", mk(1.30, 0), false},
		{"better", mk(0.5, 0), true},
		{"failed op", mk(1, 1), false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write("b.json", c.set))
		if err != nil || ok != c.ok {
			t.Errorf("%s: ok=%v err=%v, want ok=%v\n%s", c.name, ok, err, c.ok, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*(len(endToEnd)+1) {
			t.Errorf("%s: %d rows", c.name, rows)
		}
	}
}
