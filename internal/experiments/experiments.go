package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/machine"
	"sfccube/internal/mesh"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

// Method identifies a partitioning strategy in experiment outputs. The fixed
// order (SFC, RB, KWAY, TV) also fixes the series colors of every figure.
var methodNames = []string{"SFC", "RB", "KWAY", "TV"}

// Setup bundles the reusable pieces of one resolution's experiments. Mesh and
// Graph are Problem's, surfaced for the many readers that need nothing else.
type Setup struct {
	Problem  *core.Problem
	Mesh     *mesh.Mesh
	Graph    *graph.Graph
	Workload machine.Workload
	Model    machine.Model
	Serial   machine.StepReport
}

// NewSetup prepares the unit-cost problem, workload and machine model for a
// resolution.
func NewSetup(ne int) (*Setup, error) { return NewWeightedSetup(ne, "") }

// NewWeightedSetup is NewSetup under a weight spec (package weights grammar):
// the generated vector becomes the problem's load model, so the curve split
// and the graph's vertex weights agree by construction. The mesh resolves
// adjacency on demand and the dual graph streams through
// the exact-size CSR build (see core.Problem), so the sweep scales to the
// million-element regime without holding any intermediate edge list.
func NewWeightedSetup(ne int, spec string) (*Setup, error) {
	prob, err := core.NewProblem(ne)
	if err != nil {
		return nil, err
	}
	if err := prob.SetWeightSpec(spec); err != nil {
		return nil, err
	}
	g, err := prob.Graph()
	if err != nil {
		return nil, err
	}
	w := machine.DefaultWorkload()
	mod := machine.NCARP690()
	serial, err := machine.SerialStep(prob.Mesh(), w, mod, nil)
	if err != nil {
		return nil, err
	}
	return &Setup{Problem: prob, Mesh: prob.Mesh(), Graph: g, Workload: w, Model: mod, Serial: serial}, nil
}

// Partition runs one method-table entry on the setup's problem; the
// METIS-style partitioners record their multilevel metrics into reg (nil =
// unmetered).
func (s *Setup) Partition(method string, nproc int, seed int64, reg *obs.Registry) (*partition.Partition, error) {
	return core.Run(context.Background(), method, s.Problem, nproc, seed, reg)
}

// Table1 reproduces Table 1 of the paper: the SEAM test resolutions with
// their element counts, processor-count ranges, and SFC recursion levels.
func Table1() *Table {
	t := &Table{
		Name:    "table1",
		Title:   "Table 1: SEAM test resolutions",
		Headers: []string{"K (# of elements)", "Nproc", "Ne", "Hilbert level", "m-Peano level"},
	}
	type res struct {
		ne int
	}
	for _, ne := range []int{8, 9, 16, 18} {
		n2, n3, err := sfc.Factor(ne)
		if err != nil {
			continue
		}
		k := 6 * ne * ne
		procs := core.EqualProcCounts(ne)
		nprocRange := fmt.Sprintf("1 to %d", procs[len(procs)-1])
		hil := fmt.Sprintf("%d", n2)
		pea := fmt.Sprintf("%d", n3)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), nprocRange, fmt.Sprintf("%d", ne), hil, pea,
		})
	}
	t.Notes = append(t.Notes,
		"processor counts are the divisors of K so every processor holds an equal number of elements")
	return t
}

// Telemetry maps one table column (method name) to the flat metric
// snapshot (obs.Registry.Snapshot) of the registry that instrumented that
// cell's partitioning run: the partitioner's own multilevel metrics. The
// derived partition-quality figures are the table beside it.
type Telemetry map[string]map[string]float64

// JSON renders the telemetry with stable key order.
func (tel Telemetry) JSON() ([]byte, error) {
	return json.MarshalIndent(tel, "", "  ")
}

// table2Row is one row of a Table-2 style table: its label and how a cell
// reads from one method's partition statistics and modelled step.
type table2Row struct {
	name string
	cell func(st partition.Stats, rep machine.StepReport) string
}

var (
	rowLBNelemd = table2Row{"LB(nelemd)", func(st partition.Stats, _ machine.StepReport) string {
		return fmt.Sprintf("%.3f", partition.LoadBalance(st.Nelemd))
	}}
	rowLBSpcv = table2Row{"LB(spcv)", func(st partition.Stats, _ machine.StepReport) string {
		return fmt.Sprintf("%.3f", st.LBSpcv)
	}}
	rowEdgecut = table2Row{"edgecut", func(st partition.Stats, _ machine.StepReport) string {
		return fmt.Sprintf("%d", st.EdgeCutUnweighted)
	}}
)

// Table2 reproduces Table 2: partition statistics for K=1536 (Ne=16) on 768
// processors, for SFC and the three METIS algorithms. Each method's column
// is produced under its own metrics registry, whose snapshot is returned
// alongside the table, ready to be dumped next to the CSV artifact
// (instrumentation does not perturb the partitions).
func Table2(seed int64) (*Table, Telemetry, error) {
	s, err := NewSetup(table2Ne)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Name:  "table2",
		Title: fmt.Sprintf("Table 2: partition statistics for K=%d on %d processors", s.Mesh.NumElems(), table2NProc),
		Notes: []string{
			"TCV is the per-step bytes crossing processor boundaries in the machine model",
			"Time is the modelled execution time per time-step on the P690 model",
		},
	}
	tel, err := table2Fill(t, s, seed, []table2Row{
		rowLBNelemd,
		rowLBSpcv,
		{"TCV (Mbytes)", func(_ partition.Stats, rep machine.StepReport) string {
			return fmt.Sprintf("%.1f", float64(rep.TotalCommBytes)/1e6)
		}},
		rowEdgecut,
		{"Time (usec)", func(_ partition.Stats, rep machine.StepReport) string {
			return fmt.Sprintf("%.0f", rep.StepTime*1e6)
		}},
	})
	return t, tel, err
}

// The paper's Table 2 configuration.
const table2Ne, table2NProc = 16, 768

// table2Fill is the Table-2 loop: partition the setup's problem with every
// method, measure each partition under the problem's weights and on the
// machine model, and lay the rows out with one column per method. The four
// columns are independent partitioning runs and are evaluated in parallel
// (each method's partitioner carries its own seed-derived RNG state, so the
// results match the serial order exactly).
func table2Fill(t *Table, s *Setup, seed int64, rows []table2Row) (Telemetry, error) {
	order := []string{"SFC", "KWAY", "TV", "RB"}
	t.Headers = append([]string{"Metric"}, order...)
	stats := make([]partition.Stats, len(order))
	reps := make([]machine.StepReport, len(order))
	regs := make([]*obs.Registry, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for i, method := range order {
		regs[i] = obs.NewRegistry()
		wg.Add(1)
		go func(i int, method string) {
			defer wg.Done()
			p, err := s.Partition(method, table2NProc, seed, regs[i])
			if err != nil {
				errs[i] = err
				return
			}
			if stats[i], err = partition.ComputeStatsWeighted(s.Graph, p, s.Problem.Weights()); err != nil {
				errs[i] = err
				return
			}
			reps[i], errs[i] = machine.SimulateStep(s.Mesh, p, s.Workload, s.Model, nil)
		}(i, method)
	}
	wg.Wait()
	tel := Telemetry{}
	for i, method := range order {
		if errs[i] != nil {
			return nil, errs[i]
		}
		tel[method] = regs[i].Snapshot()
	}
	for _, row := range rows {
		r := []string{row.name}
		for i := range order {
			r = append(r, row.cell(stats[i], reps[i]))
		}
		t.Rows = append(t.Rows, r)
	}
	return tel, nil
}

// procSweep returns the equal-elements processor counts for a resolution,
// capped at maxProc (the paper's machine exposed at most 768 processors).
func procSweep(ne, maxProc int) []int {
	var out []int
	for _, p := range core.EqualProcCounts(ne) {
		if p <= maxProc {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// sweep evaluates every partitioning method over the equal-elements
// processor counts up to maxProc and returns per-method series of the
// metric selected by pick.
func sweep(ne, maxProc int, seed int64, pick func(machine.StepReport, machine.StepReport) float64) (*Figure, error) {
	return sweepProcs(ne, procSweep(ne, maxProc), seed, pick)
}

// sweepProcs is sweep over an explicit processor-count list. Every
// (method, nproc) cell of the matrix is independent — each runs its own
// partitioner with a seed passed explicitly — so the cells are evaluated on a
// bounded pool of goroutines and written to a preallocated results matrix.
// The output ordering (and, because metis.Partition is deterministic for a
// fixed seed, every value) is identical to the former serial double loop.
func sweepProcs(ne int, procs []int, seed int64, pick func(machine.StepReport, machine.StepReport) float64) (*Figure, error) {
	s, err := NewSetup(ne)
	if err != nil {
		return nil, err
	}
	type cell struct {
		method string
		np     int
		y      *float64
	}
	fig := &Figure{Lines: make([]Line, len(methodNames))}
	var cells []cell
	for mi, method := range methodNames {
		line := Line{Label: method, X: make([]float64, len(procs)), Y: make([]float64, len(procs))}
		for pi, np := range procs {
			line.X[pi] = float64(np)
			cells = append(cells, cell{method: method, np: np, y: &line.Y[pi]})
		}
		fig.Lines[mi] = line
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		stop     atomic.Bool // first failure stops further cell launches
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, c := range cells {
		if stop.Load() {
			break // a cell failed; don't start work whose result is discarded
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(c cell) {
			defer wg.Done()
			defer func() { <-sem }()
			if stop.Load() {
				return
			}
			rep := s.Serial
			if c.np != 1 {
				p, err := s.Partition(c.method, c.np, seed, nil)
				if err != nil {
					fail(err)
					return
				}
				rep, err = machine.SimulateStep(s.Mesh, p, s.Workload, s.Model, nil)
				if err != nil {
					fail(err)
					return
				}
			}
			*c.y = pick(s.Serial, rep)
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return fig, nil
}

// Fig7 reproduces Figure 7: speedup versus processor count for K=384
// (Ne=8, Hilbert curve), SFC against the METIS algorithms.
func Fig7(seed int64) (*Figure, error) {
	fig, err := sweep(8, 384, seed, machine.Speedup)
	if err != nil {
		return nil, err
	}
	fig.Name, fig.Title = "fig7", "Figure 7: speedup vs single processor, K=384"
	fig.XLabel, fig.YLabel = "Nproc", "speedup"
	return fig, nil
}

// Fig8 reproduces Figure 8: speedup for K=486 (Ne=9, m-Peano curve).
func Fig8(seed int64) (*Figure, error) {
	fig, err := sweep(9, 486, seed, machine.Speedup)
	if err != nil {
		return nil, err
	}
	fig.Name, fig.Title = "fig8", "Figure 8: speedup vs single processor, K=486"
	fig.XLabel, fig.YLabel = "Nproc", "speedup"
	return fig, nil
}

// Fig9 reproduces Figure 9: sustained Gflops for K=384.
func Fig9(seed int64) (*Figure, error) {
	fig, err := sweep(8, 384, seed, func(_, rep machine.StepReport) float64 {
		return rep.SustainedGflops()
	})
	if err != nil {
		return nil, err
	}
	fig.Name, fig.Title = "fig9", "Figure 9: sustained Gflops, K=384"
	fig.XLabel, fig.YLabel = "Nproc", "Gflops"
	return fig, nil
}

// Fig10 reproduces Figure 10: sustained Gflops for K=1536 up to 768
// processors.
func Fig10(seed int64) (*Figure, error) {
	fig, err := sweep(16, 768, seed, func(_, rep machine.StepReport) float64 {
		return rep.SustainedGflops()
	})
	if err != nil {
		return nil, err
	}
	fig.Name, fig.Title = "fig10", "Figure 10: sustained Gflops, K=1536"
	fig.XLabel, fig.YLabel = "Nproc", "Gflops"
	return fig, nil
}

// Advantage returns the relative advantage of the SFC series over the best
// METIS series at the largest x of a speedup/Gflops figure, e.g. 0.22 for
// the paper's "22% increase on O(1000) processors".
func Advantage(fig *Figure) float64 {
	var sfcY, bestMetis float64
	for _, l := range fig.Lines {
		n := len(l.Y)
		if n == 0 {
			continue
		}
		y := l.Y[n-1]
		if l.Label == "SFC" {
			sfcY = y
		} else if y > bestMetis {
			bestMetis = y
		}
	}
	if bestMetis == 0 {
		return 0
	}
	return sfcY/bestMetis - 1
}

// K1944 reproduces the section-4 comparison of the Hilbert-Peano case: the
// SFC advantage at 4 elements per processor for K=1944 (Ne=18, 486 procs)
// versus K=384 (Ne=8, 96 procs).
func K1944(seed int64) (*Table, error) {
	t := &Table{
		Name:    "k1944",
		Title:   "Hilbert-Peano case: SFC advantage at 4 elements per processor",
		Headers: []string{"K", "Ne", "Nproc", "curve", "SFC advantage over best METIS"},
	}
	cases := []struct {
		ne, nproc int
		curve     string
	}{
		{8, 96, "Hilbert"},
		{18, 486, "Hilbert-Peano"},
	}
	for _, c := range cases {
		s, err := NewSetup(c.ne)
		if err != nil {
			return nil, err
		}
		var sfcTime float64
		bestMetis := 0.0
		first := true
		for _, method := range methodNames {
			p, err := s.Partition(method, c.nproc, seed, nil)
			if err != nil {
				return nil, err
			}
			rep, err := machine.SimulateStep(s.Mesh, p, s.Workload, s.Model, nil)
			if err != nil {
				return nil, err
			}
			if method == "SFC" {
				sfcTime = rep.StepTime
			} else if first || rep.StepTime < bestMetis {
				bestMetis = rep.StepTime
				first = false
			}
		}
		adv := bestMetis/sfcTime - 1
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", 6*c.ne*c.ne),
			fmt.Sprintf("%d", c.ne),
			fmt.Sprintf("%d", c.nproc),
			c.curve,
			fmt.Sprintf("%.1f%%", adv*100),
		})
	}
	t.Notes = append(t.Notes,
		"the paper reports 13% for K=384 on 96 procs and only 7% for K=1944 on 486 procs")
	return t, nil
}
