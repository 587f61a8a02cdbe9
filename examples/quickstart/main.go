// Quickstart: partition a cubed-sphere with a space-filling curve.
//
// This is the smallest end-to-end use of the library: build the paper's
// partitioner for one of its test resolutions (Ne=8, K=384 elements), split
// the mesh over 96 processors, and print the quality metrics of section 2.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sfccube/internal/core"
	"sfccube/internal/partition"
)

func main() {
	// One call runs the whole algorithm: build the mesh, factor Ne=8 into
	// the Hilbert schedule, thread a continuous curve over all six faces,
	// and cut it into 96 equal segments.
	res, err := core.PartitionCubedSphere(core.Config{Ne: 8, NProcs: 96})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh: K=%d spectral elements (Ne=%d per face edge)\n",
		res.Mesh.NumElems(), res.Mesh.Ne())
	fmt.Printf("curve: %v schedule, continuous=%v\n",
		res.Schedule, res.Curve.IsContinuous())

	// Every processor gets exactly K/NProcs elements: the load balance of
	// equation (1) is identically zero.
	counts := res.Partition.Counts()
	fmt.Printf("elements per processor: %d (all equal: LB=%.3f)\n",
		counts[0], partition.LoadBalance(counts))

	// Evaluate communication metrics on the element graph (vertices =
	// elements, edges = shared boundaries and corner points). A Problem reads
	// the graph's rows straight off the mesh; nothing is built to measure a
	// curve cut.
	prob, err := core.ProblemFrom(res.Mesh.Ne(), res.Mesh, nil)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := prob.Stats(res.Partition)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edgecut: %d boundaries straddle processors\n", stats.EdgeCutUnweighted)
	fmt.Printf("LB(spcv): %.4f (communication balance)\n", stats.LBSpcv)

	// The first processor's elements form one contiguous curve segment.
	fmt.Print("processor 0 owns elements:")
	for e := 0; e < res.Mesh.NumElems(); e++ {
		if res.Partition.Part(e) == 0 {
			fmt.Printf(" %d", e)
		}
	}
	fmt.Println()
}
