package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sfccube/internal/experiments"
)

// outDir is the committed artifact directory: every file -run all writes
// has its twin there.
var outDir = filepath.Join("..", "..", "out")

// TestArtifactsMatchOut regenerates every artifact of -run all and holds
// each byte for byte against its committed twin in out/: the published
// tables, figures and golden suites are what the code computes today. A
// change that moves an experiment output regenerates out/ (see TESTING.md).
func TestArtifactsMatchOut(t *testing.T) {
	dir := t.TempDir()
	if err := runAll("all", dir, 1, experiments.DefaultWeightSpec); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(written) == 0 {
		t.Fatal("-run all wrote no artifacts")
	}
	for _, f := range written {
		got, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		twin := filepath.Join(outDir, f.Name())
		want, err := os.ReadFile(twin)
		if err != nil {
			t.Errorf("%s has no committed twin: %v", f.Name(), err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s; regenerate with: go run ./cmd/experiments -run all -out out/\n%s",
				f.Name(), twin, firstDiff(want, got))
		}
	}
}

// firstDiff names the first line at which got departs from want and prints
// it from both under the lines before it, which both share: three, or back
// to the opening brace of the enclosing JSON object when that is nearer
// than 13, so in a golden suite the context names the cell and the line
// names the field. A long line (an SVG is one line) is cut around the first
// differing byte.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	n := 0
	for n < len(w) && n < len(g) && w[n] == g[n] {
		n++
	}
	line := func(lines []string) string {
		if n < len(lines) {
			return lines[n]
		}
		return ""
	}
	wl, gl := line(w), line(g)
	col := 0
	for col < len(wl) && col < len(gl) && wl[col] == gl[col] {
		col++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at line %d, byte %d:\n", n+1, col+1)
	from := max(0, n-3)
	for i := n - 1; i >= max(0, n-13); i-- {
		if strings.HasSuffix(w[i], "{") {
			from = min(from, i)
			break
		}
	}
	for _, l := range w[from:n] {
		fmt.Fprintf(&b, "           %s\n", clip(l, 0))
	}
	fmt.Fprintf(&b, "  out/     %s\n  computed %s\n", clip(wl, col), clip(gl, col))
	return b.String()
}

// clip cuts a line longer than 120 bytes to the 120 around byte col.
func clip(s string, col int) string {
	const width = 120
	if len(s) <= width {
		return s
	}
	lo := max(0, min(col-width/2, len(s)-width))
	return "…" + s[lo:lo+width] + "…"
}

// TestPaperClaims checks the paper's findings as EXPERIMENTS.md states them,
// each a predicate over the committed out/ CSVs or golden suite (which
// TestArtifactsMatchOut holds equal to what the code computes), against the status EXPERIMENTS.md
// gives it: "holds" or "known-miss". It fails when a predicate disagrees
// with its status in either direction, so a regeneration of out/ that flips
// a claim is visible. Flipping a status edits this table and the
// EXPERIMENTS.md section together.
func TestPaperClaims(t *testing.T) {
	const holds, knownMiss = "holds", "known-miss"
	claims := []struct {
		id, section string
		pred        func(t *testing.T) bool
		status      string
	}{
		{"fig7 within 2 % at P <= 8", "Figures 7/8", nearAtSmallP("fig7"), holds},
		{"fig8 within 2 % at P <= 8", "Figures 7/8", nearAtSmallP("fig8"), holds},
		{"fig10 within 2 % at P <= 8", "Figures 9/10", nearAtSmallP("fig10"), holds},
		{"fig7 SFC ahead at the largest P", "Figures 7/8", magnitude("fig7", 0), holds},
		{"fig8 SFC ahead at the largest P", "Figures 7/8", magnitude("fig8", 0), holds},
		{"fig10 SFC ahead at the largest P", "Figures 9/10", magnitude("fig10", 0), holds},
		{"fig8 SFC >= best METIS at every P >= 50", "Figures 7/8", aheadFrom("fig8", 50), holds},
		{"fig7 SFC >= best METIS at every P >= 50", "Figures 7/8", aheadFrom("fig7", 50), knownMiss},
		{"fig10 advantage >= half the paper's 22 %", "Figures 9/10", magnitude("fig10", 0.22/2), holds},
		{"fig7 advantage >= half the paper's 37 %", "Figures 7/8", magnitude("fig7", 0.37/2), knownMiss},
		{"fig8 advantage >= half the paper's 51 %", "Figures 7/8", magnitude("fig8", 0.51/2), knownMiss},
		{"Hilbert-Peano advantage < Hilbert advantage", "§4 K=1944", func(t *testing.T) bool {
			col, rows := readCSV(t, "k1944.csv")
			adv := map[string]float64{}
			for _, r := range rows {
				adv[r[col["curve"]]] = num(t, r[col["SFC advantage over best METIS"]])
			}
			return adv["Hilbert-Peano"] < adv["Hilbert"]
		}, knownMiss},
		{"peano-first edgecut <= every other order", "Ablation A", func(t *testing.T) bool {
			col, rows := readCSV(t, "ablation-order.csv")
			best := map[string]float64{}
			for _, r := range rows {
				if r[col["order"]] == "peano-first" {
					best[r[col["Ne"]]] = num(t, r[col["edgecut"]])
				}
			}
			for _, r := range rows {
				if num(t, r[col["edgecut"]]) < best[r[col["Ne"]]] {
					return false
				}
			}
			return len(best) > 0
		}, holds},
		{"RB at 768 balances worse without corner edges", "Ablation B", func(t *testing.T) bool {
			col, rows := readCSV(t, "ablation-corners.csv")
			lb := map[string]float64{}
			for _, r := range rows {
				if r[col["Nproc"]] == "768" && r[col["method"]] == "RB" {
					lb[r[col["graph"]]] = num(t, r[col["LB(nelemd)"]])
				}
			}
			return lb["boundary-only"] > lb["boundary+corner"]
		}, holds},
		{"TV <= KWAY on vertex TCV and > on MB, every seed", "Ablation C", func(t *testing.T) bool {
			col, rows := readCSV(t, "ablation-tv.csv")
			for _, r := range rows {
				f := func(h string) float64 { return num(t, r[col[h]]) }
				if f("TV TCV(vertex)") > f("KWAY TCV(vertex)") || f("TV TCV(MB)") <= f("KWAY TCV(MB)") {
					return false
				}
			}
			return len(rows) > 0
		}, holds},
		{"SFC has the lowest LB(weight)", "Table 2, weighted", func(t *testing.T) bool {
			lb := metricRow(t, "table2-weighted.csv", "LB(weight)")
			for m, v := range lb {
				if m != "SFC" && v <= lb["SFC"] {
					return false
				}
			}
			return true
		}, holds},
		{"SFC LB(nelemd) = 0", "Table 2", func(t *testing.T) bool {
			return metricRow(t, "table2.csv", "LB(nelemd)")["SFC"] == 0
		}, holds},
		{"golden: SFC LB(nelemd) = 0 wherever NProcs | K", "Table 2", goldenAll(func(k int, c map[string]experiments.GoldenCase) bool {
			return k%c["SFC"].NProcs != 0 || c["SFC"].LBNelemd == 0
		}), holds},
		{"golden: RB LB(nelemd) within 0.02 of KWAY and TV", "Table 2", goldenAll(func(_ int, c map[string]experiments.GoldenCase) bool {
			return c["RB"].LBNelemd <= min(c["KWAY"].LBNelemd, c["TV"].LBNelemd)+0.02
		}), holds},
		{"golden: KWAY edgecut <= 1.25x RB and TV", "Table 2", goldenAll(func(_ int, c map[string]experiments.GoldenCase) bool {
			return float64(c["KWAY"].EdgeCut) <= 1.25*float64(min(c["RB"].EdgeCut, c["TV"].EdgeCut))
		}), holds},
		{"golden at 768: RB LB <= KWAY, TV; KWAY edgecut lowest", "Table 2", func(t *testing.T) bool {
			c := goldenUnitCost(t)[768]
			return c["RB"].LBNelemd <= min(c["KWAY"].LBNelemd, c["TV"].LBNelemd) &&
				c["KWAY"].EdgeCut <= min(c["SFC"].EdgeCut, c["RB"].EdgeCut, c["TV"].EdgeCut)
		}, holds},
	}
	for _, c := range claims {
		if got := c.pred(t); got != (c.status == holds) {
			t.Errorf("%s (EXPERIMENTS.md %q): predicate is %v but its status is %s; "+
				"a flipped claim changes its status here and its text in EXPERIMENTS.md together",
				c.id, c.section, got, c.status)
		}
	}
}

// figRow is one processor count of a figure CSV: SFC against the best of
// the METIS-style columns.
type figRow struct {
	p         float64
	sfc, best float64
}

func figure(t *testing.T, name string) []figRow {
	t.Helper()
	col, rows := readCSV(t, name+".csv")
	var out []figRow
	for _, r := range rows {
		fr := figRow{p: num(t, r[col["Nproc"]]), sfc: num(t, r[col["SFC"]])}
		for _, m := range []string{"RB", "KWAY", "TV"} {
			fr.best = max(fr.best, num(t, r[col[m]]))
		}
		out = append(out, fr)
	}
	if len(out) == 0 {
		t.Fatalf("%s.csv has no rows", name)
	}
	return out
}

// nearAtSmallP: SFC within 2 % of the best METIS partition at every P <= 8.
func nearAtSmallP(name string) func(*testing.T) bool {
	return func(t *testing.T) bool {
		for _, r := range figure(t, name) {
			if r.p <= 8 && math.Abs(r.sfc/r.best-1) > 0.02 {
				return false
			}
		}
		return true
	}
}

// aheadFrom: SFC at least the best METIS partition at every P >= from.
func aheadFrom(name string, from float64) func(*testing.T) bool {
	return func(t *testing.T) bool {
		for _, r := range figure(t, name) {
			if r.p >= from && r.sfc < r.best {
				return false
			}
		}
		return true
	}
}

// magnitude: SFC's advantage over the best METIS partition at the largest P
// exceeds at (at 0: SFC is ahead there).
func magnitude(name string, at float64) func(*testing.T) bool {
	return func(t *testing.T) bool {
		rows := figure(t, name)
		last := rows[len(rows)-1]
		return last.sfc/last.best-1 > at
	}
}

// goldenUnitCost reads the unit-cost cases of the committed
// out/golden-metrics.json, keyed by part count, then by method.
func goldenUnitCost(t *testing.T) map[int]map[string]experiments.GoldenCase {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(outDir, "golden-metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var suite experiments.Suite[experiments.GoldenCase]
	if err := json.Unmarshal(b, &suite); err != nil {
		t.Fatal(err)
	}
	out := map[int]map[string]experiments.GoldenCase{}
	for _, c := range suite.Cases {
		if c.Weights != "" {
			continue
		}
		if out[c.NProcs] == nil {
			out[c.NProcs] = map[string]experiments.GoldenCase{}
		}
		out[c.NProcs][c.Method] = c
	}
	if len(out) == 0 {
		t.Fatal("golden-metrics.json has no unit-cost cases")
	}
	return out
}

// goldenAll: pred holds at every unit-cost part count of the golden suite,
// given the mesh's element count K and the cases by method.
func goldenAll(pred func(k int, c map[string]experiments.GoldenCase) bool) func(*testing.T) bool {
	return func(t *testing.T) bool {
		for _, c := range goldenUnitCost(t) {
			if !pred(6*c["SFC"].Ne*c["SFC"].Ne, c) {
				return false
			}
		}
		return true
	}
}

// metricRow reads the row of a Metric,<method>... table CSV labelled metric,
// keyed by method.
func metricRow(t *testing.T, name, metric string) map[string]float64 {
	t.Helper()
	col, rows := readCSV(t, name)
	for _, r := range rows {
		if r[col["Metric"]] != metric {
			continue
		}
		out := map[string]float64{}
		for h, i := range col {
			if h != "Metric" {
				out[h] = num(t, r[i])
			}
		}
		return out
	}
	t.Fatalf("%s has no %s row", name, metric)
	return nil
}

// readCSV reads a committed out/ CSV: its column index by header, and its
// rows.
func readCSV(t *testing.T, name string) (map[string]int, [][]string) {
	t.Helper()
	f, err := os.Open(filepath.Join(outDir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil || len(recs) == 0 {
		t.Fatalf("%s: %v (%d records)", name, err, len(recs))
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	return col, recs[1:]
}

// num parses a CSV cell, a trailing % allowed.
func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
