// Adaptive mesh refinement: SFC ordering of a refined cubed-sphere.
//
// The paper's space-filling-curve machinery came out of parallel AMR (its
// references [1], [2], [5], [7]); this example builds a quadtree-refined
// cubed-sphere (a storm cap refined two levels), enforces the 2:1 balance
// condition, orders the leaves along the Hilbert continuation of the base
// curve, and partitions the adaptive mesh by splitting that order -- perfect
// balance and connected parts with no graph partitioner in sight.
//
// Run with: go run ./examples/adaptivemesh
package main

import (
	"fmt"
	"log"
	"math"

	"sfccube/internal/amr"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

func main() {
	const ne, nproc = 8, 64
	base, err := mesh.New(ne)
	if err != nil {
		log.Fatal(err)
	}
	storm := mesh.Vec3{X: 1, Y: 0, Z: 0}

	forest, err := amr.NewForest(ne, 2, func(l amr.Leaf) bool {
		s := 1 << l.Level
		id := base.ID(l.Face, l.X/s, l.Y/s)
		return math.Abs(base.ElemCenter(id).Dot(storm)) > math.Cos(25*math.Pi/180)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refined forest: %d leaves (base mesh had %d elements)\n",
		forest.NumLeaves(), base.NumElems())

	splits, err := forest.Balance()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2:1 balance: %d additional splits -> %d leaves (balanced: %v)\n",
		splits, forest.NumLeaves(), forest.IsBalanced())

	levels := map[int]int{}
	for _, l := range forest.Leaves() {
		levels[l.Level]++
	}
	for lv := 0; lv <= forest.MaxLevel(); lv++ {
		fmt.Printf("  level %d: %d leaves\n", lv, levels[lv])
	}

	p, err := forest.PartitionCurve(sfc.PeanoFirst, nproc, nil)
	if err != nil {
		log.Fatal(err)
	}
	g, err := forest.Graph(8, 1)
	if err != nil {
		log.Fatal(err)
	}
	st, err := partition.ComputeStats(g, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSFC partition over %d processors:\n", nproc)
	fmt.Printf("  leaves per proc: %d..%d (LB=%.3f)\n", st.MinNelemd, st.MaxNelemd, st.LBNelemd)
	fmt.Printf("  edgecut: %d, disconnected parts: %d\n",
		st.EdgeCutUnweighted, st.DisconnectedParts)
}
