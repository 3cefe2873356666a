package obs

// Prometheus text-format exposition, hand-rolled on the stdlib (the repo
// takes no external dependencies). Only the subset of the format the
// registry needs: `# TYPE` lines per metric family plus one
// `name{labels} value` line per series.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// familyName strips a trailing {label="..."} block, yielding the metric
// family a series belongs to (the unit of `# TYPE` lines).
func familyName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// WritePrometheus renders every metric in Prometheus text format, series
// sorted by name so scrapes are diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]uint64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	r.mu.Unlock()

	var b strings.Builder
	writeFamily := func(series map[string]float64, kind string, asInt map[string]uint64) {
		names := make([]string, 0, len(series)+len(asInt))
		for n := range series {
			names = append(names, n)
		}
		for n := range asInt {
			names = append(names, n)
		}
		sort.Strings(names)
		lastFamily := ""
		for _, n := range names {
			if fam := familyName(n); fam != lastFamily {
				fmt.Fprintf(&b, "# TYPE %s %s\n", fam, kind)
				lastFamily = fam
			}
			if v, ok := asInt[n]; ok {
				fmt.Fprintf(&b, "%s %d\n", n, v)
				continue
			}
			fmt.Fprintf(&b, "%s %s\n", n, formatFloat(series[n]))
		}
	}
	writeFamily(nil, "counter", counters)
	writeFamily(gauges, "gauge", nil)
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a value the way Prometheus clients expect: shortest
// round-trip representation, with NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format, for mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
