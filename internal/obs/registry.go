package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricKind tags the exposition type of a registry entry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// entry is one registered metric instance: a name, a canonical rendered
// label string, and exactly one live metric handle.
type entry struct {
	name   string
	labels string // canonical `k="v",k2="v2"` form, "" when unlabelled
	kind   metricKind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds named metrics and renders them. The zero value is not
// usable; call NewRegistry. A nil *Registry is the disabled fast path:
// its constructor methods return nil handles whose operations no-op.
//
// Registration (Counter/Gauge/Histogram) takes a mutex and may allocate;
// do it once at setup, keep the returned handles, and use those on the
// hot path.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*entry
	entries []*entry
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry), help: make(map[string]string)}
}

// Help sets the HELP text emitted for a metric name. Optional; metrics
// without help omit the HELP line.
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// renderLabels canonicalises alternating key, value label pairs into the
// sorted `k="v"` exposition form. Odd trailing elements are dropped.
func renderLabels(labels []string) string {
	n := len(labels) / 2
	if n == 0 {
		return ""
	}
	pairs := make([]string, 0, n)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+`="`+escapeLabel(labels[i+1])+`"`)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// lookup returns the entry for (name, labels), creating it with the given
// kind on first use. A kind mismatch on an existing entry panics: that is
// a programming error at instrumentation-setup time, never data-driven.
func (r *Registry) lookup(name string, labels []string, kind metricKind) *entry {
	ls := renderLabels(labels)
	key := name + "\x00" + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, labels: ls, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = &Histogram{}
	}
	r.byKey[key] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter returns the counter named name with the given alternating
// key, value label pairs, registering it on first use. On a nil registry
// it returns nil, whose methods no-op.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter).c
}

// Gauge returns the gauge named name, registering it on first use.
// On a nil registry it returns nil, whose methods no-op.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge).g
}

// Histogram returns the histogram named name, registering it on first
// use. On a nil registry it returns nil, whose methods no-op.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram).h
}

// sortedEntries returns the entries sorted by (name, labels) — the
// stable exposition order — plus a copy of the help map.
func (r *Registry) sortedEntries() ([]*entry, map[string]string) {
	r.mu.Lock()
	es := make([]*entry, len(r.entries))
	copy(es, r.entries)
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	sort.Slice(es, func(i, j int) bool {
		if es[i].name != es[j].name {
			return es[i].name < es[j].name
		}
		return es[i].labels < es[j].labels
	})
	return es, help
}

// fmtBound renders a histogram bucket bound for the le label: integers
// as integers, +Inf as "+Inf".
func fmtBound(b float64) string {
	if b > 9.2e18 { // +Inf
		return "+Inf"
	}
	return strconv.FormatInt(int64(b), 10)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in a deterministic order: metrics
// sorted by name, then by canonical label string. Histograms emit
// cumulative buckets up to the highest non-empty bound plus +Inf, then
// _sum and _count. Safe to call while metrics are being updated.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	es, help := r.sortedEntries()
	var b strings.Builder
	lastName := ""
	for _, e := range es {
		if e.name != lastName {
			if h, ok := help[e.name]; ok && h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", e.name, h)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind)
			lastName = e.name
		}
		suffix := ""
		if e.labels != "" {
			suffix = "{" + e.labels + "}"
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", e.name, suffix, e.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %d\n", e.name, suffix, e.g.Value())
		case kindHistogram:
			buckets := e.h.snapshotBuckets()
			hi := 0
			for i, c := range buckets {
				if c != 0 {
					hi = i
				}
			}
			var cum int64
			for i := 0; i <= hi; i++ {
				cum += buckets[i]
				b.WriteString(e.name)
				b.WriteString("_bucket{")
				if e.labels != "" {
					b.WriteString(e.labels)
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "le=%q} %d\n", fmtBound(BucketBound(i)), cum)
			}
			if hi < histBuckets-1 {
				cum += buckets[histBuckets-1]
				b.WriteString(e.name)
				b.WriteString("_bucket{")
				if e.labels != "" {
					b.WriteString(e.labels)
					b.WriteString(",")
				}
				fmt.Fprintf(&b, "le=\"+Inf\"} %d\n", cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %d\n", e.name, suffix, e.h.Sum())
			fmt.Fprintf(&b, "%s_count%s %d\n", e.name, suffix, e.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns the current value of every registered metric, keyed
// by the exposition name (`name` or `name{k="v"}`). Histograms expand to
// `_count` and `_sum` entries. The map is a fresh copy; experiments use
// it to emit per-cell telemetry next to their table outputs.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	es, _ := r.sortedEntries()
	for _, e := range es {
		suffix := ""
		if e.labels != "" {
			suffix = "{" + e.labels + "}"
		}
		switch e.kind {
		case kindCounter:
			out[e.name+suffix] = float64(e.c.Value())
		case kindGauge:
			out[e.name+suffix] = float64(e.g.Value())
		case kindHistogram:
			out[e.name+"_count"+suffix] = float64(e.h.Count())
			out[e.name+"_sum"+suffix] = float64(e.h.Sum())
		}
	}
	return out
}

// Handler returns an http.Handler serving the Prometheus text exposition
// (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
