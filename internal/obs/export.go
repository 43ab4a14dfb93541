package obs

// Exporters: wide events as JSONL, and Registry and SLO snapshots in
// the Prometheus text exposition format.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteJSONL writes one JSON object per wide event, one event per
// line — a post-mortem bundle's requests.jsonl, greppable and
// `jq`-able.
func WriteJSONL(w io.Writer, events []WideEvent) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}

// promLabel escapes a Prometheus label value (backslash, quote,
// newline).
func promLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteSLOPrometheus renders an SLO snapshot as jumpslice_http_*
// series, labelled by endpoint: cumulative request/error/shed
// counters and the window-scoped health the SLO tracker maintains —
// latency percentile gauges, error/shed ratios, and burn-rate gauges
// (only when objectives are configured). Endpoints are sorted in the
// snapshot, so equal snapshots render to equal bytes. A nil or empty
// snapshot writes nothing.
func WriteSLOPrometheus(w io.Writer, s *SLOSnapshot) error {
	if s == nil || len(s.Endpoints) == 0 {
		return nil
	}
	series := []struct {
		name, typ string
		value     func(e *EndpointSLO) (float64, bool)
	}{
		{"jumpslice_http_requests_total", "counter", func(e *EndpointSLO) (float64, bool) { return float64(e.TotalRequests), true }},
		{"jumpslice_http_errors_total", "counter", func(e *EndpointSLO) (float64, bool) { return float64(e.TotalErrors), true }},
		{"jumpslice_http_shed_total", "counter", func(e *EndpointSLO) (float64, bool) { return float64(e.TotalSheds), true }},
		{"jumpslice_http_window_requests", "gauge", func(e *EndpointSLO) (float64, bool) { return float64(e.Requests), true }},
		{"jumpslice_http_window_error_ratio", "gauge", func(e *EndpointSLO) (float64, bool) { return e.ErrorRate, true }},
		{"jumpslice_http_window_shed_ratio", "gauge", func(e *EndpointSLO) (float64, bool) { return e.ShedRate, true }},
		{"jumpslice_http_p50_ns", "gauge", func(e *EndpointSLO) (float64, bool) { return float64(e.P50NS), true }},
		{"jumpslice_http_p90_ns", "gauge", func(e *EndpointSLO) (float64, bool) { return float64(e.P90NS), true }},
		{"jumpslice_http_p99_ns", "gauge", func(e *EndpointSLO) (float64, bool) { return float64(e.P99NS), true }},
		{"jumpslice_http_error_burn", "gauge", func(e *EndpointSLO) (float64, bool) { return e.ErrorBurn, s.Objectives.ErrRate > 0 }},
		{"jumpslice_http_latency_burn", "gauge", func(e *EndpointSLO) (float64, bool) { return e.LatencyBurn, s.Objectives.Latency > 0 }},
	}
	for _, sr := range series {
		wrote := false
		for i := range s.Endpoints {
			e := &s.Endpoints[i]
			v, ok := sr.value(e)
			if !ok {
				continue
			}
			if !wrote {
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", sr.name, sr.typ); err != nil {
					return err
				}
				wrote = true
			}
			if _, err := fmt.Fprintf(w, "%s{endpoint=\"%s\"} %g\n", sr.name, promLabel(e.Endpoint), v); err != nil {
				return err
			}
		}
	}
	return nil
}

// promName sanitizes an instrument name into a Prometheus metric name:
// "jumpslice_" prefix, every non-alphanumeric rune folded to '_'.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("jumpslice_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format, version 0.0.4 (serve it with Content-Type
// "text/plain; version=0.0.4"). Counters gain the conventional
// "_total" suffix; gauges keep their bare name; histograms keep their
// unit as a name suffix ("_ns" for durations) and emit cumulative
// "_bucket" series with explicit le bounds — the snapshot's inclusive
// upper bounds, the unbounded overflow bucket rendering as le="+Inf"
// — plus "_sum" and "_count". Output order follows the snapshot
// (instruments sorted by name within each class), so equal snapshots
// render to equal bytes.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	for _, c := range s.Counters {
		name := promName(c.Name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		name := promName(g.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		name := promName(h.Name)
		if h.Unit != "" && h.Unit != UnitCount {
			name += "_" + string(h.Unit)
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if b.Le == math.MaxInt64 {
				continue // the overflow bucket is the +Inf line below
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.Le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
