package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"sfccube/internal/check"
	"sfccube/internal/core"
	"sfccube/internal/graph"
	"sfccube/internal/machine"
	"sfccube/internal/mesh"
	"sfccube/internal/obs"
	"sfccube/internal/par"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

// methodNames is the paper's comparison: the SFC partitioner and the three
// METIS-style algorithms. The fixed order (SFC, RB, KWAY, TV) also fixes the
// series colors of every figure and the case order of the golden suite.
var methodNames = []string{"SFC", "RB", "KWAY", "TV"}

// Setup bundles the reusable pieces of one resolution's experiments. Mesh is
// Problem's, surfaced for the many readers that need nothing else; name is
// the experiment's, which an audit failure of one of its cells reports, and
// oracle the Problem's CSR graph every cell's audit reads.
type Setup struct {
	name     string
	oracle   *graph.Graph
	Problem  *core.Problem
	Mesh     *mesh.Mesh
	Workload machine.Workload
	Model    machine.Model
	Serial   machine.StepReport
}

// NewSetup prepares the unit-cost problem, workload and machine model for a
// resolution, for the experiment called name.
func NewSetup(name string, ne int) (*Setup, error) { return NewWeightedSetup(name, ne, "") }

// NewWeightedSetup is NewSetup under a weight spec (package weights grammar):
// the generated vector becomes the problem's load model, so the curve split
// and the graph's vertex weights agree by construction. No method reads the
// CSR dual graph (see core.Problem); it is built here once, as the oracle
// input of every cell's audit, and held to the CSR invariants.
func NewWeightedSetup(name string, ne int, spec string) (*Setup, error) {
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
	if err := g.Validate(); err != nil {
		return nil, err
	}
	w := machine.DefaultWorkload()
	mod := machine.NCARP690()
	serial, err := machine.SerialStep(prob.Mesh(), w, mod, nil)
	if err != nil {
		return nil, err
	}
	return &Setup{name: name, oracle: g, Problem: prob, Mesh: prob.Mesh(), Workload: w, Model: mod, Serial: serial}, nil
}

// Partition runs one method-table entry on the setup's problem; the
// METIS-style partitioners record their multilevel metrics into reg (nil =
// unmetered).
func (s *Setup) Partition(method string, nproc int, seed int64, reg *obs.Registry) (*partition.Partition, error) {
	return core.Run(context.Background(), method, s.Problem, nproc, seed, reg)
}

// measured is one evaluated cell: a partition, its statistics under the
// setup's load model, the oracle metrics they were audited against and its
// modelled step on the machine model.
type measured struct {
	p   *partition.Partition
	st  partition.Stats
	mt  check.Metrics
	rep machine.StepReport
}

// measure evaluates partition p of the setup's mesh, made by method. It is
// the one place an experiment computes partition statistics, audits them
// (see audit; family is the method's check.DefaultSVCeilings key) and models
// a step.
func (s *Setup) measure(method, family string, p *partition.Partition) (measured, error) {
	st, err := s.Problem.Stats(p)
	if err != nil {
		return measured{}, err
	}
	mt, err := s.audit(method, family, p, st)
	if err != nil {
		return measured{}, err
	}
	rep, err := machine.SimulateStep(s.Mesh, p, s.Workload, s.Model, nil)
	return measured{p, st, mt, rep}, err
}

// audit holds one measured pair (p, st) to check.Audit on the setup's
// oracle graph.
func (s *Setup) audit(method, family string, p *partition.Partition, st partition.Stats) (check.Metrics, error) {
	mt, err := check.Audit(s.oracle, p, st, family)
	if err != nil {
		return mt, cellError(s.name, method, p.NumParts(), err)
	}
	return mt, nil
}

// cellError names the cell an audit failed in: its experiment, method and
// part count.
func cellError(exp, method string, nproc int, err error) error {
	return fmt.Errorf("experiments: %s: %s nproc=%d: %w", exp, method, nproc, err)
}

// run is one cell: Partition followed by measure.
func (s *Setup) run(method string, nproc int, seed int64, reg *obs.Registry) (measured, error) {
	p, err := s.Partition(method, nproc, seed, reg)
	if err != nil {
		return measured{}, err
	}
	return s.measure(method, method, p)
}

// cells runs fn(i) for every cell i in [0, n) on par.ForBlocks and returns
// the lowest-index cell's error, so the error reported does not depend on
// scheduling. Every cell runs; fn must write only cell-i state. The cells
// of one sweep are independent partitioning runs, each with its seed passed
// explicitly, so the results match a serial loop exactly.
func cells(n int, fn func(i int) error) error {
	errs := make([]error, n)
	par.ForBlocks(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
// reads from one method's measured partition.
type table2Row struct {
	name string
	cell func(m measured) string
}

var (
	rowLBNelemd = table2Row{"LB(nelemd)", func(m measured) string {
		return fmt.Sprintf("%.3f", partition.LoadBalance(m.st.Nelemd))
	}}
	rowLBSpcv = table2Row{"LB(spcv)", func(m measured) string {
		return fmt.Sprintf("%.3f", m.st.LBSpcv)
	}}
	rowEdgecut = table2Row{"edgecut", func(m measured) string {
		return fmt.Sprintf("%d", m.st.EdgeCutUnweighted)
	}}
)

// Table2 reproduces Table 2: partition statistics for K=1536 (Ne=16) on 768
// processors, for SFC and the three METIS algorithms. Each method's column
// is produced under its own metrics registry, whose snapshot is returned
// alongside the table, ready to be dumped next to the CSV artifact
// (instrumentation does not perturb the partitions).
func Table2(seed int64) (*Table, Telemetry, error) {
	s, err := NewSetup("table2", table2Ne)
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
		{"TCV (Mbytes)", func(m measured) string {
			return fmt.Sprintf("%.1f", float64(m.rep.TotalCommBytes)/1e6)
		}},
		rowEdgecut,
		{"Time (usec)", func(m measured) string {
			return fmt.Sprintf("%.0f", m.rep.StepTime*1e6)
		}},
	})
	return t, tel, err
}

// The paper's Table 2 configuration.
const table2Ne, table2NProc = 16, 768

// table2Fill is the Table-2 loop: run every method as one cell, each under
// its own metrics registry, and lay the rows out with one column per method.
func table2Fill(t *Table, s *Setup, seed int64, rows []table2Row) (Telemetry, error) {
	order := []string{"SFC", "KWAY", "TV", "RB"}
	t.Headers = append([]string{"Metric"}, order...)
	ms := make([]measured, len(order))
	regs := make([]*obs.Registry, len(order))
	err := cells(len(order), func(i int) (err error) {
		regs[i] = obs.NewRegistry()
		ms[i], err = s.run(order[i], table2NProc, seed, regs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	tel := Telemetry{}
	for i, method := range order {
		tel[method] = regs[i].Snapshot()
	}
	for _, row := range rows {
		r := []string{row.name}
		for _, m := range ms {
			r = append(r, row.cell(m))
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

// sweepLines evaluates y for every (label, nproc) pair as one cell and
// returns one line per label over x = procs.
func sweepLines(labels []string, procs []int, y func(label string, nproc int) (float64, error)) ([]Line, error) {
	lines := make([]Line, len(labels))
	for i, label := range labels {
		lines[i] = Line{Label: label, Y: make([]float64, len(procs))}
		for _, np := range procs {
			lines[i].X = append(lines[i].X, float64(np))
		}
	}
	err := cells(len(labels)*len(procs), func(c int) (err error) {
		l, pi := &lines[c/len(procs)], c%len(procs)
		l.Y[pi], err = y(l.Label, procs[pi])
		return err
	})
	return lines, err
}

// figure sweeps every partitioning method over procs at resolution ne and
// plots pick(serial, step) of each cell's modelled step; the single-processor
// point is the serial step itself.
func figure(name, title, yLabel string, ne int, procs []int, seed int64, pick func(serial, rep machine.StepReport) float64) (*Figure, error) {
	s, err := NewSetup(name, ne)
	if err != nil {
		return nil, err
	}
	lines, err := sweepLines(methodNames, procs, func(method string, np int) (float64, error) {
		if np == 1 {
			return pick(s.Serial, s.Serial), nil
		}
		m, err := s.run(method, np, seed, nil)
		return pick(s.Serial, m.rep), err
	})
	if err != nil {
		return nil, err
	}
	return &Figure{Name: name, Title: title, XLabel: "Nproc", YLabel: yLabel, Lines: lines}, nil
}

func gflops(_, rep machine.StepReport) float64 { return rep.SustainedGflops() }

// Fig7 reproduces Figure 7: speedup versus processor count for K=384
// (Ne=8, Hilbert curve), SFC against the METIS algorithms.
func Fig7(seed int64) (*Figure, error) {
	return figure("fig7", "Figure 7: speedup vs single processor, K=384", "speedup",
		8, procSweep(8, 384), seed, machine.Speedup)
}

// Fig8 reproduces Figure 8: speedup for K=486 (Ne=9, m-Peano curve).
func Fig8(seed int64) (*Figure, error) {
	return figure("fig8", "Figure 8: speedup vs single processor, K=486", "speedup",
		9, procSweep(9, 486), seed, machine.Speedup)
}

// Fig9 reproduces Figure 9: sustained Gflops for K=384.
func Fig9(seed int64) (*Figure, error) {
	return figure("fig9", "Figure 9: sustained Gflops, K=384", "Gflops",
		8, procSweep(8, 384), seed, gflops)
}

// Fig10 reproduces Figure 10: sustained Gflops for K=1536 up to 768
// processors.
func Fig10(seed int64) (*Figure, error) {
	return figure("fig10", "Figure 10: sustained Gflops, K=1536", "Gflops",
		16, procSweep(16, 768), seed, gflops)
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
		s, err := NewSetup("k1944", c.ne)
		if err != nil {
			return nil, err
		}
		var sfcTime, bestMetis float64
		for _, method := range methodNames {
			m, err := s.run(method, c.nproc, seed, nil)
			if err != nil {
				return nil, err
			}
			if method == "SFC" {
				sfcTime = m.rep.StepTime
			} else if bestMetis == 0 || m.rep.StepTime < bestMetis {
				bestMetis = m.rep.StepTime
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
