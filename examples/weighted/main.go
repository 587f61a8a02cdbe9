// Weighted partitioning: non-uniform element cost.
//
// The paper treats every spectral element as equally expensive, but the SFC
// algorithm extends naturally to weighted elements: the curve is cut into
// segments of equal total *weight* instead of equal element count. This
// example mimics a model whose physics cost grows in a storm-track band
// (mid-latitudes cost 3x), partitions with and without the weights, and
// shows the weighted cut restoring the balance the uniform cut loses.
//
// Run with: go run ./examples/weighted
package main

import (
	"fmt"
	"log"
	"math"

	"sfccube/internal/core"
	"sfccube/internal/machine"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
)

func main() {
	const ne, nproc = 16, 128
	m, err := mesh.New(ne)
	if err != nil {
		log.Fatal(err)
	}

	// Element weights: 3x where the element centre is in the 30-60 degree
	// latitude bands (both hemispheres).
	k := m.NumElems()
	weights := make([]int64, k)
	expensive := 0
	for e := 0; e < k; e++ {
		lat, _ := mesh.LatLon(m.ElemCenter(mesh.ElemID(e)))
		deg := math.Abs(lat * 180 / math.Pi)
		if deg >= 30 && deg <= 60 {
			weights[e] = 3
			expensive++
		} else {
			weights[e] = 1
		}
	}
	fmt.Printf("K=%d elements, %d of them 3x cost (storm-track band), %d processors\n\n",
		k, expensive, nproc)

	// Uniform cut: perfect element-count balance but poor weighted balance.
	uniform, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nproc})
	if err != nil {
		log.Fatal(err)
	}
	// Weighted cut: segments of near-equal total weight.
	weighted, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: nproc, Weights: weights})
	if err != nil {
		log.Fatal(err)
	}

	wf := make([]float64, k)
	for e := range wf {
		wf[e] = float64(weights[e])
	}
	report := func(name string, p *partition.Partition) {
		wc := make([]int64, p.NumParts())
		for v, q := range p.Assignment() {
			wc[q] += weights[v]
		}
		rep, err := machine.SimulateStep(m, p, machine.DefaultWorkload(), machine.NCARP690(), wf)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s LB(count)=%.3f  LB(weighted)=%.3f  modelled step %.0f us\n",
			name,
			partition.LoadBalance(p.Counts()),
			partition.LoadBalance(wc),
			rep.StepTime*1e6)
	}
	report("uniform", uniform.Partition)
	report("weighted", weighted.Partition)
}
