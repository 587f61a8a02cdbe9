package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"sfccube/internal/graph"
	"sfccube/internal/mesh"
	"sfccube/internal/metis"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
	"sfccube/internal/weights"
)

// Problem is the one substrate every partitioning method runs on: the Ne
// cubed-sphere mesh (which stores no neighbour tables: the graph build and
// the stats resolve adjacency analytically), the optional
// element weights (the load model every method balances), and the derived
// structures — dual graph, Hilbert–Peano curve, serpentine curve — each
// built on first request and memoised, so a method pays only for what it
// reads and nothing is ever built twice. Only the multilevel methods request
// the graph; the curve methods and Stats never read it: Stats sweeps the
// mesh view, which holds O(1) state and is part of the problem, so no
// measurement allocates one. The weights become
// the graph's vertex weights once, when it is first requested; Stats reads
// them as they are.
//
// Configure a Problem (SetWeights, Order) before its first use; after that
// it is read-only and safe for concurrent readers.
type Problem struct {
	// Order selects the Hilbert/Peano refinement interleaving of the SFC
	// curve for mixed sizes (see Config.Order). Only the sfc method reads it.
	Order sfc.Order

	mesh    *mesh.Mesh
	view    graph.MeshView // the mesh's graph unstored, swept by Stats
	weights []int64
	given   *graph.Graph // caller-provided dual graph, adopted by Graph

	graph      lazy[*graph.Graph]
	curve      lazy[*sfc.CubeCurve]
	serpentine lazy[*sfc.CubeCurve]
}

// lazy memoises one fallible construction.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazy[T]) get(build func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = build() })
	return l.v, l.err
}

// NewProblem builds the problem for the Ne mesh (mesh.New, which stores
// nothing but Ne): the curve methods never query element neighbours, and the
// graph build and the stats view resolve rows on the fly from index
// arithmetic and the cube's fixed gluing table, so no size pays for an index.
func NewProblem(ne int) (*Problem, error) { return ProblemFrom(ne, nil, nil) }

// ProblemFrom is NewProblem over pre-built inputs: a nil mesh is built from
// ne, and a non-nil dual graph is reused instead of rebuilt (its vertex
// weights are overwritten by the problem's, so the graph and the curve split
// can never disagree about the load model).
func ProblemFrom(ne int, m *mesh.Mesh, g *graph.Graph) (*Problem, error) {
	if m == nil {
		var err error
		if m, err = mesh.New(ne); err != nil {
			return nil, err
		}
	}
	return &Problem{mesh: m, view: *graph.NewMeshView(m, graph.DefaultOptions()), given: g}, nil
}

// SetWeights installs the element weight vector (indexed by mesh.ElemID; nil
// = uniform cost). Zero weights mark inactive elements and are allowed; a
// negative weight fails with *partition.WeightError and an all-zero vector
// with *partition.ZeroTotalWeightError, both in element-id space.
func (p *Problem) SetWeights(w []int64) error {
	if w != nil {
		if k := p.mesh.NumElems(); len(w) != k {
			return fmt.Errorf("core: %d weights for %d elements", len(w), k)
		}
		if err := partition.ValidateWeights(w); err != nil {
			return err
		}
	}
	p.weights = w
	return nil
}

// SetWeightSpec is SetWeights with the vector a physics-proxy spec (package
// weights grammar: "cfl", "hv:amp=16,m=6", ...) generates on the problem's
// mesh; "" and "uniform" mean unit cost.
func (p *Problem) SetWeightSpec(spec string) error {
	ws, err := weights.Parse(spec)
	if err != nil {
		return err
	}
	return p.SetWeights(ws.Generate(p.mesh))
}

// Ne returns the face dimension.
func (p *Problem) Ne() int { return p.mesh.Ne() }

// Mesh returns the cubed-sphere mesh.
func (p *Problem) Mesh() *mesh.Mesh { return p.mesh }

// Weights returns the element weight vector, nil for uniform cost.
func (p *Problem) Weights() []int64 { return p.weights }

// Graph returns the dual graph with the paper's edge weights
// (graph.DefaultOptions) and the problem's weights as vertex weights.
func (p *Problem) Graph() (*graph.Graph, error) {
	return p.graph.get(func() (*graph.Graph, error) {
		g := p.given
		if g == nil {
			var err error
			if g, err = graph.FromMesh(p.mesh, graph.DefaultOptions()); err != nil {
				return nil, err
			}
		}
		if p.weights != nil {
			w32, err := weights.Int32(p.weights)
			if err != nil {
				return nil, err
			}
			if err := g.SetVertexWeights(w32); err != nil {
				return nil, err
			}
		}
		return g, nil
	})
}

// Stats returns the paper's quality metrics of part on the problem's dual
// graph, the load balance and PartWeights under the problem's weights. It
// sweeps the mesh view (graph.MeshView, the edges of Graph) whatever method
// ran, so every answer is measured by the same code and measuring never
// reads or builds the CSR graph. The one exception is a graph the caller
// supplied (ProblemFrom), which is read as given: its vertex weights count
// when the problem has no weights. The weights are read as they are, never
// copied.
func (p *Problem) Stats(part *partition.Partition) (partition.Stats, error) {
	if p.given != nil {
		return partition.ComputeStatsWeighted(p.given, part, p.weights)
	}
	return partition.StatsOver(&p.view, part, p.weights)
}

// NeError reports a face size the Hilbert–Peano construction cannot refine
// (Ne not of the form 2^n 3^m). It unwraps to the sfc error.
type NeError struct {
	Ne  int
	Err error
}

func (e *NeError) Error() string { return fmt.Sprintf("core: Ne=%d: %v", e.Ne, e.Err) }
func (e *NeError) Unwrap() error { return e.Err }

// Curve returns the continuous Hilbert / m-Peano / Hilbert–Peano curve
// through all six faces; it fails with *NeError when Ne is not 2^n 3^m.
func (p *Problem) Curve() (*sfc.CubeCurve, error) {
	return p.curve.get(func() (*sfc.CubeCurve, error) {
		sched, err := sfc.ScheduleFor(p.Ne(), p.Order)
		if err != nil {
			return nil, &NeError{Ne: p.Ne(), Err: err}
		}
		return sfc.NewCubeCurve(p.mesh, sched)
	})
}

// Serpentine returns the boustrophedon baseline curve, which exists for
// every Ne.
func (p *Problem) Serpentine() (*sfc.CubeCurve, error) {
	return p.serpentine.get(func() (*sfc.CubeCurve, error) {
		return sfc.NewCubeCurveFromBase(p.mesh, sfc.GenerateSerpentine(p.Ne()))
	})
}

// Method is one row of the method table: a partitioner that runs on a
// Problem. Run splits the problem into nparts parts; seed is read only by
// Seeded methods and reg (nil = unmetered) only by the multilevel ones, the
// curve splits being closed-form constructions with nothing to meter. The
// curve methods ignore ctx: they are O(K), and a partition delivered past a
// deadline is always better than none.
type Method struct {
	// Name is the canonical lower-case name.
	Name string
	// Seeded reports whether the result depends on seed.
	Seeded bool
	Run    RunFunc
}

// RunFunc is the one call signature of every method.
type RunFunc func(ctx context.Context, p *Problem, nparts int, seed int64, reg *obs.Registry) (*partition.Partition, error)

// Methods is the method table, the single place a method name is bound to
// code: the paper's SFC algorithm, the serpentine baseline ordering, and the
// three METIS algorithms it is compared against.
var Methods = []Method{
	{Name: "sfc", Run: splitCurve((*Problem).Curve)},
	{Name: "serpentine", Run: splitCurve((*Problem).Serpentine)},
	{Name: "rb", Seeded: true, Run: multilevel(metis.RB)},
	{Name: "kway", Seeded: true, Run: multilevel(metis.KWay)},
	{Name: "tv", Seeded: true, Run: multilevel(metis.KWayVol)},
}

var methodAliases = map[string]string{"metis": "kway", "serp": "serpentine"}

// LookupMethod resolves a method name, case-insensitively and through the
// aliases metis = kway and serp = serpentine.
func LookupMethod(name string) (Method, bool) {
	name = strings.ToLower(name)
	if a, ok := methodAliases[name]; ok {
		name = a
	}
	for _, m := range Methods {
		if m.Name == name {
			return m, true
		}
	}
	return Method{}, false
}

// Run looks name up in the method table and runs it on p.
func Run(ctx context.Context, name string, p *Problem, nparts int, seed int64, reg *obs.Registry) (*partition.Partition, error) {
	m, ok := LookupMethod(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown method %q", name)
	}
	return m.Run(ctx, p, nparts, seed, reg)
}

func splitCurve(curve func(*Problem) (*sfc.CubeCurve, error)) RunFunc {
	return func(_ context.Context, p *Problem, nparts int, _ int64, _ *obs.Registry) (*partition.Partition, error) {
		c, err := curve(p)
		if err != nil {
			return nil, err
		}
		return PartitionCurve(c, nparts, p.weights)
	}
}

func multilevel(method metis.Method) RunFunc {
	return func(ctx context.Context, p *Problem, nparts int, seed int64, reg *obs.Registry) (*partition.Partition, error) {
		g, err := p.Graph()
		if err != nil {
			return nil, err
		}
		return metis.PartitionCtx(ctx, g, nparts, metis.Options{Method: method, Seed: seed, Obs: reg})
	}
}
