package experiments

import (
	"fmt"
	"math"

	"sfccube/internal/amr"
	"sfccube/internal/check"
	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/metis"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
	"sfccube/internal/weights"
)

// AMRCase is one forest cell: a cubed-sphere forest refined with a named
// pattern (see amrRefine) and partitioned into NProcs parts by every AMR
// method.
type AMRCase struct {
	Ne       int    `json:"ne"`
	MaxLevel int    `json:"max_level"`
	Refine   string `json:"refine"`
	NProcs   int    `json:"nprocs"`
	Weights  string `json:"weights"` // level-scaled leaf-weight spec; "" = unit weights
	Seed     int64  `json:"seed"`
}

// stormCap is the refinement pattern of the AMR table: a storm region, the
// base elements inside a 25-degree spherical cap, refined to MaxLevel, and
// the only pattern the forest cell 2:1 balances.
const stormCap = "storm-cap"

// amrRefine maps a named refinement pattern to its predicate on the forest
// over base. Patterns are deterministic functions of the leaf, so a case is
// reproducible from its name alone.
func amrRefine(name string, base *mesh.Mesh) (amr.RefineFunc, error) {
	switch name {
	case "none":
		return nil, nil
	case "face-px":
		return func(l amr.Leaf) bool { return l.Face == mesh.FacePX }, nil
	case "checker":
		return func(l amr.Leaf) bool { return (l.X+l.Y)%2 == 0 }, nil
	case "column":
		return func(l amr.Leaf) bool { return l.X>>uint(l.Level) == 0 }, nil
	case stormCap:
		centre := mesh.Vec3{X: 1, Y: 0, Z: 0}
		return func(l amr.Leaf) bool {
			s := 1 << l.Level
			id := base.ID(l.Face, l.X/s, l.Y/s)
			return base.ElemCenter(id).Dot(centre) > math.Cos(25*math.Pi/180)
		}, nil
	}
	return nil, fmt.Errorf("experiments: unknown AMR refinement pattern %q", name)
}

// amrForest is the forest of one AMRCase and its graph, which carries the
// leaf weights w (nil = unit) as vertex weights and is every audit's oracle
// input. Partitioning reads both in place, so one forest serves concurrent
// cells.
type amrForest struct {
	f *amr.Forest
	g *graph.Graph
	w []int64
}

// amrMethods is the forest cell's method table: the weighted tree-SFC split
// (CURVE) plus the two graph partitioners that handle hanging-node meshes
// natively.
var amrMethods = []struct {
	name string
	run  func(af *amrForest, c AMRCase) (*partition.Partition, error)
}{
	{"CURVE", func(af *amrForest, c AMRCase) (*partition.Partition, error) {
		return af.f.PartitionCurve(sfc.PeanoFirst, c.NProcs, af.w)
	}},
	{"RB", forestMetis(metis.RB)},
	{"KWAY", forestMetis(metis.KWay)},
}

func forestMetis(m metis.Method) func(*amrForest, AMRCase) (*partition.Partition, error) {
	return func(af *amrForest, c AMRCase) (*partition.Partition, error) {
		return metis.Partition(af.g, c.NProcs, metis.Options{Method: m, Seed: c.Seed})
	}
}

// newAMRForest builds c's forest, refined with c's pattern (the storm cap
// also 2:1 balanced), and its graph, held to the CSR invariants.
func newAMRForest(c AMRCase) (*amrForest, error) {
	base, err := mesh.New(c.Ne)
	if err != nil {
		return nil, err
	}
	refine, err := amrRefine(c.Refine, base)
	if err != nil {
		return nil, err
	}
	f, err := amr.NewForest(c.Ne, c.MaxLevel, refine)
	if err != nil {
		return nil, err
	}
	if c.Refine == stormCap {
		if _, err := f.Balance(); err != nil {
			return nil, err
		}
	}
	g, err := f.Graph(8, 1)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	af := &amrForest{f: f, g: g}
	if c.Weights != "" {
		spec, err := weights.Parse(c.Weights)
		if err != nil {
			return nil, err
		}
		af.w = f.LeafWeights(spec)
		w32, err := weights.Int32(af.w)
		if err != nil {
			return nil, err
		}
		if err := g.SetVertexWeights(w32); err != nil {
			return nil, err
		}
	}
	return af, nil
}

// forestMeasured is one audited partition of a forest cell: its statistics
// on the forest graph and the oracle metrics they were audited against.
type forestMeasured struct {
	st partition.Stats
	mt check.Metrics
}

// cell is the one forest cell, evaluated for experiment exp: it partitions
// the forest into c.NProcs parts with every AMR method (in amrMethods order)
// and audits each partition with check.Audit under its "AMR:" family
// ceiling.
func (af *amrForest) cell(exp string, c AMRCase) ([]forestMeasured, error) {
	ms := make([]forestMeasured, len(amrMethods))
	for i, am := range amrMethods {
		p, err := am.run(af, c)
		if err != nil {
			return nil, err
		}
		st, err := partition.ComputeStatsWeighted(af.g, p, af.w)
		if err != nil {
			return nil, err
		}
		mt, err := check.Audit(af.g, p, st, "AMR:"+am.name)
		if err != nil {
			return nil, cellError(exp, fmt.Sprintf("%s on %s", am.name, c.Refine), c.NProcs, err)
		}
		ms[i] = forestMeasured{st, mt}
	}
	return ms, nil
}

// AMRPartition evaluates SFC partitioning on an adaptively refined
// cubed-sphere -- the application domain of the paper's references [1], [2],
// [5] and [7]. A storm region (spherical cap) is refined two levels, the
// forest is 2:1 balanced, and the leaf mesh is partitioned by splitting the
// SFC leaf order against the METIS-style baselines, one forest cell per
// processor count on the one forest.
func AMRPartition(seed int64) (*Table, error) {
	t := &Table{
		Name:    "amr",
		Title:   "AMR: partitioning an adaptively refined cubed-sphere (storm cap refined 2 levels)",
		Headers: []string{"Nproc", "method", "LB(nelemd)", "edgecut", "disconnected parts"},
	}
	const ne = 8
	c := AMRCase{Ne: ne, MaxLevel: 2, Refine: stormCap, Seed: seed}
	af, err := newAMRForest(c)
	if err != nil {
		return nil, err
	}
	nprocs := []int{16, 64, 128}
	ms := make([][]forestMeasured, len(nprocs))
	err = cells(len(nprocs), func(i int) (err error) {
		c := c
		c.NProcs = nprocs[i]
		ms[i], err = af.cell(t.Name, c)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"forest: %d leaves from a %d-element base mesh, balanced 2:1", af.f.NumLeaves(), 6*ne*ne))
	for i, nproc := range nprocs {
		for j, am := range amrMethods {
			method, st := am.name, ms[i][j].st
			if method == "CURVE" {
				method = "SFC"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", nproc), method,
				fmt.Sprintf("%.3f", st.LBNelemd),
				fmt.Sprintf("%d", st.EdgeCutUnweighted),
				fmt.Sprintf("%d", st.DisconnectedParts),
			})
		}
	}
	return t, nil
}
