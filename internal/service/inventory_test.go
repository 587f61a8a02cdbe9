package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"sfccube/internal/obs"
	"sfccube/internal/resilience"
)

// TestMetricInventory: the partsrv_* families a Service exposes — name, type
// and label keys — are the rows of the metric table in DESIGN.md, neither
// more nor fewer, and each carries a HELP line. The exposition lists a family
// only once it has a series, so the test first gives every lazily created one
// a sample: a breaker trip and a short-circuit, a served HTTP request (which
// also gives its route an admission estimate) and an injected chaos fault.
func TestMetricInventory(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewService(Config{Registry: reg, BreakerFailures: 1, BreakerCooldown: time.Hour})
	// An expired budget fails KWAY and RB once each, which trips both
	// breakers; the next request short-circuits them.
	for i, deadline := range []int64{-1, 0} {
		seed := int64(i + 1)
		if _, _, err := s.Partition(context.Background(),
			Request{Ne: 4, NParts: 6, Method: "auto", Seed: &seed, DeadlineMS: deadline}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := resilience.ParseChaosPlan("errinject@1", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []http.Handler{s.Handler(), ChaosMiddleware(plan, reg, s.Handler())} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/partition?ne=4&nparts=6&method=sfc", nil))
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	live := exposedFamilies(t, b.String())
	src, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]string{}
	row := regexp.MustCompile("(?m)^\\| `(partsrv_\\w+)` \\| (\\w+) \\|([^|]*)\\|")
	quoted := regexp.MustCompile("`(\\w+)`")
	for _, m := range row.FindAllStringSubmatch(string(src), -1) {
		var labels []string
		for _, l := range quoted.FindAllStringSubmatch(m[3], -1) {
			labels = append(labels, l[1])
		}
		sort.Strings(labels)
		table[m[1]] = m[2] + " " + strings.Join(labels, ",")
	}
	for name, got := range live {
		if want, ok := table[name]; !ok {
			t.Errorf("the service exposes %s (%s), which DESIGN.md's metric table does not list", name, got)
		} else if got != want {
			t.Errorf("%s: exposed as %q (type and label keys), DESIGN.md says %q", name, got, want)
		}
	}
	for name := range table {
		if _, ok := live[name]; !ok {
			t.Errorf("DESIGN.md's metric table lists %s, which the service does not expose", name)
		}
	}
	if len(table) < 20 {
		t.Fatalf("DESIGN.md's metric table has %d rows; the row pattern no longer matches it", len(table))
	}
}

// exposedFamilies reads a Prometheus text exposition into "type labels" per
// partsrv_ family, the label keys sorted and joined by commas (a histogram's
// le excluded), and fails on a family with no HELP line.
func exposedFamilies(t *testing.T, text string) map[string]string {
	t.Helper()
	kind, help, labels := map[string]string{}, map[string]bool{}, map[string][]string{}
	labelKey := regexp.MustCompile(`(\w+)="`)
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			kind[f[2]] = f[3]
		case len(f) >= 3 && f[0] == "#" && f[1] == "HELP":
			help[f[2]] = true
		case len(f) == 2:
			name, rest, _ := strings.Cut(f[0], "{")
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suffix); ok && kind[base] == "histogram" {
					name = base
				}
			}
			for _, l := range labelKey.FindAllStringSubmatch(rest, -1) {
				if l[1] != "le" && !slices.Contains(labels[name], l[1]) {
					labels[name] = append(labels[name], l[1])
				}
			}
		}
	}
	out := map[string]string{}
	for name, k := range kind {
		if !strings.HasPrefix(name, "partsrv_") {
			continue
		}
		if !help[name] {
			t.Errorf("%s has no HELP line", name)
		}
		sort.Strings(labels[name])
		out[name] = k + " " + strings.Join(labels[name], ",")
	}
	return out
}
