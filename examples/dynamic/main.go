// Dynamic load balancing: the use case space-filling curves were invented
// for (Pilkington & Baden, the paper's reference [6]).
//
// A "storm" of expensive physics drifts around the equator; every interval
// the mesh is repartitioned against the new element costs. Because the SFC
// repartitioner re-cuts one fixed curve and remaps part labels to the
// previous assignment, only the elements near shifting segment boundaries
// migrate -- compare the migration column against a from-scratch
// repartition, which reshuffles nearly everything.
//
// Run with: go run ./examples/dynamic
package main

import (
	"fmt"
	"log"
	"math"

	"sfccube/internal/core"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/sfc"
)

func main() {
	const ne, nproc, steps = 16, 96, 12
	m, err := mesh.New(ne)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.NewRepartitioner(ne, sfc.PeanoFirst)
	if err != nil {
		log.Fatal(err)
	}

	// State each element would carry when migrating: 3 fields x 8x8 GLL
	// points x 16 levels x 8 bytes.
	const bytesPerElem = 3 * 64 * 16 * 8

	k := m.NumElems()
	fmt.Printf("K=%d elements over %d processors; storm completes one lap in %d steps\n\n",
		k, nproc, steps)
	fmt.Printf("%4s %12s %14s %12s\n", "step", "LB(weighted)", "moved elements", "moved MB")

	for s := 0; s < steps; s++ {
		// The storm: a 30-degree cap of 4x-cost elements drifting west.
		lon := 2 * math.Pi * float64(s) / float64(steps)
		centre := mesh.Vec3{X: math.Cos(lon), Y: math.Sin(lon), Z: 0}
		w := make([]int64, k)
		for e := 0; e < k; e++ {
			if m.ElemCenter(mesh.ElemID(e)).Dot(centre) > math.Cos(math.Pi/6) {
				w[e] = 4
			} else {
				w[e] = 1
			}
		}

		p, mig, err := rep.Update(nproc, w, bytesPerElem)
		if err != nil {
			log.Fatal(err)
		}
		load := make([]int64, p.NumParts())
		for v, q := range p.Assignment() {
			load[q] += w[v]
		}
		lb := partition.LoadBalance(load)
		fmt.Printf("%4d %12.3f %8d (%4.1f%%) %11.2f\n",
			s, lb, mig.Moved, mig.MovedFraction*100, float64(mig.BytesMoved)/1e6)
	}
	fmt.Println("\n(step 0 shows no migration: it is the initial partition)")
}
