// Command experiments regenerates every table and figure of Dennis (IPPS
// 2003, "Partitioning with Space-Filling Curves on the Cubed-Sphere") from
// the reproduction. Text output goes to stdout; -out writes CSV and SVG
// artifacts.
//
// Usage:
//
//	experiments -run all            # everything
//	experiments -run table2         # one experiment
//	experiments -run fig7 -out out/ # with CSV + SVG artifacts
//
// Experiments: table1, table2, table2-weighted, weighted-sweep, fig7, fig8,
// fig9, fig10, k1944, ablation-order, ablation-corners, ablation-tv,
// ablation-orderings, future-scaling, dynamic, fidelity, amr, golden,
// golden-amr.
//
// The weighted experiments (-weights selects the physics-proxy spec, e.g.
// 'cfl' or 'hv:amp=16') rerun the Table-2 and sweep machinery under
// heterogeneous element cost: the SFC curve is cut into equal-weight
// segments and the METIS methods carry the same weights as vertex costs.
//
// Every partition behind an artifact is audited where it is measured: the
// experiments' cell holds it to internal/check's oracles (check.Audit) and
// an experiment fails, naming the cell, if one rejects it. The golden and
// golden-amr experiments are matrices of those cells whose oracle metrics
// are frozen in golden-metrics.json / golden-amr.json; amr and golden-amr
// run the one forest cell. Every artifact of -run all, those two included,
// is committed under out/ and held byte for byte there; `experiments -run
// all -out out/` refreshes them all (see TESTING.md for the refresh policy).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sfccube/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run (or 'all')")
	out := flag.String("out", "", "directory for CSV/SVG artifacts (optional)")
	seed := flag.Int64("seed", 1, "random seed for the METIS-style partitioners")
	weightSpec := flag.String("weights", experiments.DefaultWeightSpec,
		"physics-proxy weight spec for the weighted experiments (internal/weights grammar)")
	flag.Parse()

	if err := runAll(*run, *out, *seed, *weightSpec); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// tvSeeds is the seed count of the TV anomaly ablation.
const tvSeeds = 5

func runAll(run, out string, seed int64, weightSpec string) error {
	type experiment struct {
		name string
		fn   func() (any, error)
	}
	exps := []experiment{
		{"table1", func() (any, error) { return experiments.Table1(), nil }},
		{"table2", func() (any, error) {
			// With an artifact directory, the per-cell partitioner
			// telemetry is dumped next to the CSV.
			t, tel, err := experiments.Table2(seed)
			if err != nil || out == "" {
				return t, err
			}
			b, err := tel.JSON()
			if err != nil {
				return nil, err
			}
			return t, writeFile(out, "table2-telemetry.json", string(b)+"\n")
		}},
		{"table2-weighted", func() (any, error) { return experiments.Table2Weighted(seed, weightSpec) }},
		{"weighted-sweep", func() (any, error) { return experiments.WeightedSweep(8, 384, seed, weightSpec) }},
		{"fig7", func() (any, error) { return experiments.Fig7(seed) }},
		{"fig8", func() (any, error) { return experiments.Fig8(seed) }},
		{"fig9", func() (any, error) { return experiments.Fig9(seed) }},
		{"fig10", func() (any, error) { return experiments.Fig10(seed) }},
		{"k1944", func() (any, error) { return experiments.K1944(seed) }},
		{"ablation-order", func() (any, error) { return experiments.AblationOrder(seed) }},
		{"ablation-corners", func() (any, error) { return experiments.AblationCorners(seed) }},
		{"ablation-tv", func() (any, error) { return experiments.AblationTV(tvSeeds) }},
		{"ablation-orderings", func() (any, error) { return experiments.AblationOrderings(seed) }},
		{"future-scaling", func() (any, error) { return experiments.FutureScaling(seed) }},
		{"dynamic", func() (any, error) { return experiments.DynamicRepartition(seed) }},
		{"fidelity", func() (any, error) { return experiments.ModelFidelity(seed) }},
		{"amr", func() (any, error) { return experiments.AMRPartition(seed) }},
		{"golden", func() (any, error) {
			s, err := experiments.GoldenMetrics()
			return jsonArtifact{s, "golden-metrics.json"}, err
		}},
		{"golden-amr", func() (any, error) {
			s, err := experiments.GoldenAMR()
			return jsonArtifact{s, "golden-amr.json"}, err
		}},
	}
	found := false
	for _, ex := range exps {
		if run != "all" && run != ex.name {
			continue
		}
		found = true
		result, err := ex.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
		if err := emit(result, out); err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
	}
	if !found {
		return fmt.Errorf("unknown experiment %q", run)
	}
	return nil
}

// jsonArtifact is a golden suite and the file -out writes it to, as
// indented JSON with a trailing newline.
type jsonArtifact struct {
	suite any
	file  string
}

func emit(result any, out string) error {
	switch r := result.(type) {
	case *experiments.Table:
		fmt.Println(r.Render())
		if out != "" {
			if err := writeFile(out, r.Name+".csv", r.CSV()); err != nil {
				return err
			}
		}
	case *experiments.Figure:
		fmt.Println(r.RenderTable())
		fmt.Printf("SFC advantage over best METIS at the largest count: %.1f%%\n\n",
			experiments.Advantage(r)*100)
		if out != "" {
			if err := writeFile(out, r.Name+".csv", r.CSV()); err != nil {
				return err
			}
			if err := writeFile(out, r.Name+".svg", r.SVG()); err != nil {
				return err
			}
		}
	case jsonArtifact:
		b, err := json.MarshalIndent(r.suite, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		if out != "" {
			if err := writeFile(out, r.file, string(b)+"\n"); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown result type %T", result)
	}
	return nil
}

func writeFile(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
