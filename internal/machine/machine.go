// Package machine models the parallel execution of SEAM on a cluster like
// NCAR's IBM P690 (the testbed of Dennis, IPPS 2003, section 4): a set of
// processors with a fixed sustained floating-point rate, grouped into SMP
// nodes, connected by a switch with per-message latency and per-byte cost.
//
// The model is analytic and deterministic: given a partition of the
// cubed-sphere and the per-element workload of the spectral element solver,
// it produces the per-time-step execution time of every processor and the
// whole machine. This reproduces the mechanism the paper identifies --
// "reductions in LB(nelemd) correlate to reduction in the execution time per
// time-step" with computation accounting for more than half of the step --
// without needing 768 physical processors. Absolute times are not those of
// the 2002 hardware; the curve shapes (who wins, where the crossover falls)
// are what the model preserves. See DESIGN.md for the substitution argument
// and EXPERIMENTS.md for measured-vs-paper comparisons.
package machine

import (
	"fmt"
	"sort"

	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/seam"
)

// Model describes the machine.
type Model struct {
	// FlopsPerProc is the sustained floating-point rate of one processor
	// in flops/s. The paper reports 841 Mflops (16% of the 5.2 Gflops
	// Power-4 peak) for single-processor SEAM.
	FlopsPerProc float64
	// AlphaRemote and BetaRemote are the latency (s) and inverse bandwidth
	// (s/byte) of messages crossing SMP node boundaries (Colony switch).
	AlphaRemote, BetaRemote float64
	// AlphaLocal and BetaLocal apply within an SMP node (shared memory).
	AlphaLocal, BetaLocal float64
	// ProcsPerNode is the SMP node width; processor p lives on node
	// p / ProcsPerNode. The NCAR system mixed 8-way and 32-way nodes; the
	// model uses a uniform width.
	ProcsPerNode int
	// NodeAdapterBeta models the shared Colony network adapter of each SMP
	// node: all off-node traffic of a node is serialised through it, adding
	// (node's off-node bytes) * NodeAdapterBeta to the communication time
	// of every processor on the node. This is what makes partition
	// locality (keeping neighbours on the same node) pay off even when
	// load balance and edgecut are equal. Zero disables the effect.
	NodeAdapterBeta float64
}

// NCARP690 returns the calibrated model of the NCAR IBM P690 cluster:
// 1.3 GHz Power-4 processors sustaining 841 Mflops on SEAM, a Colony switch
// with ~18 us latency and ~350 MB/s bandwidth, and 8-way SMP nodes.
func NCARP690() Model {
	return Model{
		FlopsPerProc:    841e6,
		AlphaRemote:     18e-6,
		BetaRemote:      1.0 / 350e6,
		AlphaLocal:      3e-6,
		BetaLocal:       1.0 / 2e9,
		ProcsPerNode:    8,
		NodeAdapterBeta: 1.0 / 400e6,
	}
}

// Workload is the per-time-step cost of the spectral element model.
type Workload struct {
	// FlopsPerElem is the floating point work of one element for one full
	// time step (all vertical levels).
	FlopsPerElem int64
	// BytesPerEdge is the payload an element sends across one shared
	// element boundary per step: np GLL points x 8 bytes x prognostic
	// variables x vertical levels.
	BytesPerEdge int64
	// BytesPerCorner is the payload for a shared corner point.
	BytesPerCorner int64
}

// SEAMWorkload derives the workload from the solver's metered costs:
// polynomial degree n (np = n+1 points), nvar prognostic fields and nlev
// vertical levels. The defaults used by the paper reproduction are np=8
// (degree 7), nvar=3 (two velocity components and the geopotential) and
// nlev=16, which lands the K=1536/768-processor total communication volume
// in the ballpark of Table 2 (about 17 MBytes).
func SEAMWorkload(n, nvar, nlev int) Workload {
	np := n + 1
	return Workload{
		FlopsPerElem:   seam.StepFlopsShallowWater(np) * int64(nlev),
		BytesPerEdge:   seam.BoundaryExchangeBytes(np) * int64(nvar) * int64(nlev),
		BytesPerCorner: 8 * int64(nvar) * int64(nlev),
	}
}

// DefaultWorkload is SEAMWorkload(7, 3, 16).
func DefaultWorkload() Workload { return SEAMWorkload(7, 3, 16) }

// StepReport is the outcome of simulating one time step.
type StepReport struct {
	NProcs int
	// ComputeTime and CommTime are per-processor times in seconds.
	ComputeTime []float64
	CommTime    []float64
	// CommBytes is the number of bytes each processor sends per step.
	CommBytes []int64
	// Messages is the number of distinct destination processors each
	// processor sends to per step.
	Messages []int
	// StepTime is the machine time per step: max over processors of
	// compute + communication.
	StepTime float64
	// TotalFlops is the useful floating point work of the step.
	TotalFlops int64
	// TotalCommBytes sums CommBytes over processors.
	TotalCommBytes int64
}

// SustainedGflops returns the machine's sustained rate for the step.
func (r StepReport) SustainedGflops() float64 {
	return float64(r.TotalFlops) / r.StepTime / 1e9
}

// SimulateStep evaluates one time step of the workload on the model machine
// for the given element partition. weights, if non-nil, scales each
// element's flops (indexed by mesh.ElemID); nil means uniform cost.
func SimulateStep(m *mesh.Mesh, p *partition.Partition, w Workload, mod Model, weights []float64) (StepReport, error) {
	k := m.NumElems()
	if p.NumVertices() != k {
		return StepReport{}, fmt.Errorf("machine: partition has %d vertices, mesh has %d elements", p.NumVertices(), k)
	}
	if mod.ProcsPerNode < 1 {
		return StepReport{}, fmt.Errorf("machine: ProcsPerNode must be >= 1")
	}
	nproc := p.NumParts()
	rep := StepReport{
		NProcs:      nproc,
		ComputeTime: make([]float64, nproc),
		CommTime:    make([]float64, nproc),
		CommBytes:   make([]int64, nproc),
		Messages:    make([]int, nproc),
	}
	// Compute time: sum of element flops per processor.
	for e := 0; e < k; e++ {
		f := float64(w.FlopsPerElem)
		if weights != nil {
			f *= weights[e]
		}
		rep.ComputeTime[p.Part(e)] += f / mod.FlopsPerProc
		rep.TotalFlops += int64(f)
	}
	nodeOf, numNodes := NodeLayout(nproc, mod)
	offNode := make([]int64, numNodes)
	// The pairs arrive sorted, so each CommTime entry sums its terms in one
	// fixed order and the report is the same float for float on every call.
	for _, pv := range PairVolumes(m, p, w) {
		alpha, beta := mod.AlphaRemote, mod.BetaRemote
		if nodeOf[pv.From] == nodeOf[pv.To] {
			alpha, beta = mod.AlphaLocal, mod.BetaLocal
		} else {
			offNode[nodeOf[pv.From]] += pv.Bytes
		}
		rep.CommTime[pv.From] += alpha + float64(pv.Bytes)*beta
		rep.CommBytes[pv.From] += pv.Bytes
		rep.Messages[pv.From]++
		rep.TotalCommBytes += pv.Bytes
	}
	// Shared node adapter: every processor on a node pays for the node's
	// aggregate off-node traffic.
	if mod.NodeAdapterBeta > 0 {
		for q := 0; q < nproc; q++ {
			rep.CommTime[q] += float64(offNode[nodeOf[q]]) * mod.NodeAdapterBeta
		}
	}
	// The paper-era exchange is blocking: no communication hides behind
	// computation.
	for q := 0; q < nproc; q++ {
		if t := rep.ComputeTime[q] + rep.CommTime[q]; t > rep.StepTime {
			rep.StepTime = t
		}
	}
	return rep, nil
}

// PairVolumes returns the boundary bytes every processor sends every other
// per step: all element edges and corners shared between an ordered
// processor pair, aggregated into one entry (the SEAM exchange packs one
// buffer per neighbour). The pairs are sorted by (From, To): the analytic
// model sums float terms over them and the event-driven model (package
// trace) queues them, and both must do so in an order that does not depend
// on map iteration.
func PairVolumes(m *mesh.Mesh, p *partition.Partition, w Workload) []struct {
	From, To int
	Bytes    int64
} {
	type pairVolume = struct {
		From, To int
		Bytes    int64
	}
	type pair struct{ from, to int }
	vol := make(map[pair]int64)
	var edge, corner []mesh.ElemID // reused: the mesh resolves rows per call
	for e := 0; e < m.NumElems(); e++ {
		pe := p.Part(e)
		edge, corner = m.NeighborsInto(mesh.ElemID(e), edge[:0], corner[:0])
		for _, nb := range edge {
			if pn := p.Part(int(nb)); pn != pe {
				vol[pair{pe, pn}] += w.BytesPerEdge
			}
		}
		for _, nb := range corner {
			if pn := p.Part(int(nb)); pn != pe {
				vol[pair{pe, pn}] += w.BytesPerCorner
			}
		}
	}
	out := make([]pairVolume, 0, len(vol))
	for pr, b := range vol {
		out = append(out, pairVolume{pr.from, pr.to, b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// NodeLayout maps each processor to its SMP node index: nodes of uniform
// width ProcsPerNode, filled in processor order.
func NodeLayout(nproc int, mod Model) (nodeOf []int, numNodes int) {
	nodeOf = make([]int, nproc)
	for q := 0; q < nproc; q++ {
		nodeOf[q] = q / mod.ProcsPerNode
	}
	return nodeOf, (nproc + mod.ProcsPerNode - 1) / mod.ProcsPerNode
}

// Speedup returns T(1)/T(p) where T(1) is the serial step time of the same
// workload (no communication).
func Speedup(serial, parallel StepReport) float64 {
	return serial.StepTime / parallel.StepTime
}

// SerialStep returns the step report of the whole workload on a single
// processor (no communication), the baseline for speedup curves.
func SerialStep(m *mesh.Mesh, w Workload, mod Model, weights []float64) (StepReport, error) {
	p := partition.New(m.NumElems(), 1)
	return SimulateStep(m, p, w, mod, weights)
}
