package main

// Result files, the printed table, BENCHMARK.json and -compare.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultSet is one full run as -out stores it.
type resultSet struct {
	Go         string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Workloads  map[string]result `json:"workloads"`
}

func (s resultSet) write(path string) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultSet(path string) (resultSet, error) {
	var s resultSet
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func failRatio(r result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// printTable prints every metric of one workload by name with its unit.
func printTable(w io.Writer, name string, r result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "\n== %s  correct=%v attempted=%d failed=%d fail_ratio=%g\n", name, r.Correct, r.Attempted, r.Failed, failRatio(r))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
}

// manifestJSON renders BENCHMARK.json from the catalogue.
func manifestJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/bench.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // static data
	}
	return append(raw, '\n')
}

// compareFiles applies each end-to-end metric's bound to every workload
// of two stored runs (a = parent, b = change) and prints one row per
// pair. It reports false when any pair worsened past its bound or any
// workload failed an operation.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, wl := range workloads {
		ra, inA := a.Workloads[wl.Name]
		rb, inB := b.Workloads[wl.Name]
		if !inA || !inB {
			return false, fmt.Errorf("workload %s missing from one set", wl.Name)
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			// worse is the share of A by which B is worse, whatever
			// the metric's direction.
			worse := (vb - va) / va
			if d.Better == higher {
				worse = -worse
			}
			verdict := "ok"
			if va <= 0 || worse > d.Bound {
				verdict, ok = "REGRESSED", false
			}
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", wl.Name, d.Name, va, vb, 100*(vb-va)/va, 100*d.Bound, verdict)
		}
		verdict := "ok"
		if ra.Failed != 0 || rb.Failed != 0 || !ra.Correct || !rb.Correct {
			verdict, ok = "FAILED", false
		}
		fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %8s %6s  %s\n", wl.Name, "fail_ratio", failRatio(ra), failRatio(rb), "", "0", verdict)
	}
	return ok, nil
}
