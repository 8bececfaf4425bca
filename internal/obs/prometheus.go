package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// PrometheusContentType is the Content-Type of the text exposition
// format version this package emits.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Prometheus renders the registry's snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative `_bucket{le="..."}` series plus
// `_sum` and `_count`. Metric names are sanitized (every character
// outside [a-zA-Z0-9_:] becomes '_', so "farm.cache_hits" exposes as
// farm_cache_hits) and emitted in sorted order, making the payload
// deterministic and golden-testable. A nil registry renders nothing.
func (r *Registry) Prometheus() string {
	if r == nil {
		return ""
	}
	snap := r.Snapshot()
	var b strings.Builder
	for _, c := range snap.Counters {
		name := promName(c.Name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, c.Value)
	}
	for _, g := range snap.Gauges {
		name := promName(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", name, name, g.Value)
	}
	for _, h := range snap.Histograms {
		name := promName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		var cum int64
		for i, n := range h.Counts {
			cum += n
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", name, h.Bounds[i], cum)
			} else {
				fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
			}
		}
		fmt.Fprintf(&b, "%s_sum %d\n", name, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count)
	}
	return b.String()
}

// MetricsHandler serves GET /metrics for reg: the Prometheus text
// exposition, or the human-readable Text dump with ?format=text.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, reg.Text())
			return
		}
		w.Header().Set("Content-Type", PrometheusContentType)
		io.WriteString(w, reg.Prometheus())
	})
}

// promName maps a registry metric name onto the Prometheus grammar.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
