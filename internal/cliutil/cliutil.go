// Package cliutil holds the flag-parsing and output helpers the cmd
// binaries share, so the CLIs cannot drift apart in what they accept or
// emit.
package cliutil

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"rarestfirst"
)

// ParseScale maps a -scale flag value onto a Scale. The empty name is the
// zero Scale, which leaves every suite at its own scale.
func ParseScale(name string) (rarestfirst.Scale, error) {
	switch name {
	case "":
		return rarestfirst.Scale{}, nil
	case "default":
		return rarestfirst.DefaultScale(), nil
	case "bench":
		return rarestfirst.BenchScale(), nil
	default:
		return rarestfirst.Scale{}, fmt.Errorf("unknown scale %q (want default or bench)", name)
	}
}

// ParseTorrents parses a -torrents flag value: a comma-separated list of
// Table I ids, or "all", which returns nil — the explicit "no selection"
// sentinel that lets catalog-style suites keep their own defaults.
func ParseTorrents(s string) ([]int, error) {
	if strings.TrimSpace(s) == "all" {
		return nil, nil
	}
	var ids []int
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 1 || id > 26 {
			return nil, fmt.Errorf("bad torrent id %q (want 1..26)", part)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("empty torrent list")
	}
	return ids, nil
}

// ParseSeeds parses a -seeds flag value: a comma-separated list of
// nonzero RNG seeds. Empty input means "no repeats" (nil).
func ParseSeeds(s string) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var seeds []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil || v == 0 {
			return nil, fmt.Errorf("bad seed %q (want nonzero integers)", part)
		}
		seeds = append(seeds, v)
	}
	return seeds, nil
}

// WriteReportsJSONL writes one JSON line per report to w, in input order —
// the machine-readable report sink (-json) both CLIs share. Nil reports
// (failed runs) are skipped so line order still matches run order of the
// survivors.
func WriteReportsJSONL(w io.Writer, reports []*rarestfirst.Report) error {
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		line, err := rep.JSONLine()
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// WriteAggregatesJSONL appends one JSON line per aggregate to w — the
// suite-level companion of WriteReportsJSONL. Aggregate lines carry
// Kind="aggregate" and the suite name, so both line shapes can share one
// sink file and still be told apart.
func WriteAggregatesJSONL(w io.Writer, suite string, aggs []rarestfirst.Aggregate) error {
	for _, a := range aggs {
		line, err := rarestfirst.MarshalAggregateLine(suite, a)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// PrintSuites writes the registered scenario suites, one per line.
func PrintSuites(w io.Writer) {
	for _, in := range rarestfirst.Suites() {
		fmt.Fprintf(w, "%-16s %s\n", in.Name, in.Description)
	}
}
