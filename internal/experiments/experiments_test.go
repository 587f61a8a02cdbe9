package experiments

import (
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(tab.Rows))
	}
	// The paper's K values.
	wantK := []string{"384", "486", "1536", "1944"}
	for i, row := range tab.Rows {
		if row[0] != wantK[i] {
			t.Errorf("row %d: K=%s, want %s", i, row[0], wantK[i])
		}
	}
	// Ne=18 = 2 * 3^2: Hilbert level 1, Peano level 2.
	last := tab.Rows[3]
	if last[3] != "1" || last[4] != "2" {
		t.Errorf("K=1944 levels: hilbert=%s peano=%s, want 1 and 2", last[3], last[4])
	}
	out := tab.Render()
	if !strings.Contains(out, "1536") || !strings.Contains(out, "Ne") {
		t.Error("render missing content")
	}
	if csv := tab.CSV(); !strings.Contains(csv, "384,") {
		t.Error("csv missing content")
	}
}

func TestTable2ShapesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("K=1536 partitioning in short mode")
	}
	tab, _, err := Table2(1)
	if err != nil {
		t.Fatal(err)
	}
	get := func(metric, method string) string {
		col := map[string]int{"SFC": 1, "KWAY": 2, "TV": 3, "RB": 4}[method]
		for _, row := range tab.Rows {
			if row[0] == metric {
				return row[col]
			}
		}
		t.Fatalf("metric %s not found", metric)
		return ""
	}
	// Paper shape 1: SFC has perfect computational load balance.
	if got := get("LB(nelemd)", "SFC"); got != "0.000" {
		t.Errorf("SFC LB(nelemd) = %s, want 0.000", got)
	}
	// Paper shape 2: RB balances at least as well as KWAY (section 2: the
	// recursive bisection algorithm "is best for load balancing").
	parseF := func(sv string) float64 {
		var f float64
		if _, err := fmtSscan(sv, &f); err != nil {
			t.Fatalf("bad float %q", sv)
		}
		return f
	}
	if rb, kw := parseF(get("LB(nelemd)", "RB")), parseF(get("LB(nelemd)", "KWAY")); rb > kw+1e-9 {
		t.Errorf("RB LB(nelemd)=%v worse than KWAY %v", rb, kw)
	}
	// Paper shape 3: SFC is the fastest configuration.
	parse := func(sv string) float64 {
		var f float64
		if _, err := fmtSscan(sv, &f); err != nil {
			t.Fatalf("bad float %q", sv)
		}
		return f
	}
	sfcTime := parse(get("Time (usec)", "SFC"))
	for _, m := range []string{"KWAY", "TV", "RB"} {
		if mt := parse(get("Time (usec)", m)); mt < sfcTime {
			t.Errorf("%s time %v faster than SFC %v", m, mt, sfcTime)
		}
	}
	// Paper shape 4: TCV lands in the Table-2 ballpark (about 17 MBytes).
	for _, m := range []string{"SFC", "KWAY", "TV", "RB"} {
		tcv := parse(get("TCV (Mbytes)", m))
		if tcv < 5 || tcv > 40 {
			t.Errorf("%s TCV %v MB outside plausible range", m, tcv)
		}
	}
}

func fmtSscan(s string, f *float64) (int, error) {
	return sscan(s, f)
}

func TestFig7SpeedupShapes(t *testing.T) {
	fig, err := Fig7(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Lines) != 4 {
		t.Fatalf("%d lines, want 4", len(fig.Lines))
	}
	for _, l := range fig.Lines {
		if l.X[0] != 1 || l.Y[0] != 1 {
			t.Errorf("%s: speedup at 1 proc = %v, want 1", l.Label, l.Y[0])
		}
		if l.X[len(l.X)-1] != 384 {
			t.Errorf("%s: sweep ends at %v, want 384", l.Label, l.X[len(l.X)-1])
		}
		// Speedup grows with procs at the low end.
		if l.Y[3] <= l.Y[0] {
			t.Errorf("%s: no speedup at small proc counts", l.Label)
		}
	}
	// Paper shape: SFC wins at 384 processors, and the advantage at high
	// processor counts is substantial (paper: 37%).
	adv := Advantage(fig)
	if adv <= 0 {
		t.Errorf("SFC advantage at 384 procs = %.1f%%, want positive", adv*100)
	}
	t.Logf("K=384 SFC advantage at 384 procs: %.1f%% (paper: 37%%)", adv*100)

	// Comparable at small counts: within 10% at <= 8 procs.
	var sfcLine, kwayLine *Line
	for i := range fig.Lines {
		switch fig.Lines[i].Label {
		case "SFC":
			sfcLine = &fig.Lines[i]
		case "KWAY":
			kwayLine = &fig.Lines[i]
		}
	}
	for i := 0; i < len(sfcLine.X) && sfcLine.X[i] <= 8; i++ {
		r := sfcLine.Y[i] / kwayLine.Y[i]
		if r < 0.85 || r > 1.35 {
			t.Errorf("at %v procs SFC/KWAY speedup ratio %v; paper says comparable at small counts", sfcLine.X[i], r)
		}
	}
}

func TestFig8PeanoSpeedup(t *testing.T) {
	fig, err := Fig8(1)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Lines[0].X[len(fig.Lines[0].X)-1] != 486 {
		t.Error("sweep must reach 486 processors")
	}
	adv := Advantage(fig)
	if adv <= 0 {
		t.Errorf("m-Peano SFC advantage = %.1f%%, want positive (paper: 51%%)", adv*100)
	}
	t.Logf("K=486 SFC advantage at 486 procs: %.1f%% (paper: 51%%)", adv*100)
}

func TestFig9GflopsSerialPoint(t *testing.T) {
	fig, err := Fig9(1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: 841 Mflops on a single processor.
	for _, l := range fig.Lines {
		if l.Y[0] < 0.84 || l.Y[0] > 0.842 {
			t.Errorf("%s: single-proc rate %v Gflops, want 0.841", l.Label, l.Y[0])
		}
	}
}

func TestFig10Advantage(t *testing.T) {
	if testing.Short() {
		t.Skip("K=1536 sweep in short mode")
	}
	fig, err := Fig10(1)
	if err != nil {
		t.Fatal(err)
	}
	adv := Advantage(fig)
	if adv <= 0 {
		t.Errorf("K=1536 SFC advantage at 768 = %.1f%%, want positive (paper: 22%%)", adv*100)
	}
	t.Logf("K=1536 SFC advantage at 768 procs: %.1f%% (paper: 22%%)", adv*100)
}

func TestK1944Table(t *testing.T) {
	tab, err := K1944(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tab.Rows))
	}
}

func TestFigureRendering(t *testing.T) {
	fig := &Figure{
		Name: "t", Title: "test", XLabel: "x", YLabel: "y",
		Lines: []Line{
			{Label: "a", X: []float64{1, 2, 4}, Y: []float64{1, 2, 3}},
			{Label: "b", X: []float64{1, 2, 4}, Y: []float64{1, 1.5, 2}},
		},
	}
	svg := fig.SVG()
	for _, want := range []string{"<svg", "</svg>", "test", "#2a78d6", "#1baf7a", `stroke-width="2"`} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	tbl := fig.RenderTable()
	if !strings.Contains(tbl, "a (y)") || !strings.Contains(tbl, "1.500") {
		t.Errorf("table view wrong:\n%s", tbl)
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "x,a,b") {
		t.Errorf("csv header wrong: %s", csv)
	}
}

func TestSVGEmptyFigure(t *testing.T) {
	fig := &Figure{Name: "e", Title: "empty"}
	if svg := fig.SVG(); !strings.Contains(svg, "</svg>") {
		t.Error("empty figure should still render")
	}
}

func TestAblationOrder(t *testing.T) {
	tab, err := AblationOrder(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 3 resolutions x 3 orders
		t.Fatalf("%d rows, want 9", len(tab.Rows))
	}
}

func TestAblationTVSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("K=1536 seed sweep in short mode")
	}
	tab, err := AblationTV(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tab.Rows))
	}
}
