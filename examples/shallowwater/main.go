// Shallow water: run the SEAM substrate itself.
//
// This example exercises the actual spectral element dynamical core the
// paper partitions (not the performance model): it integrates Williamson
// test case 2 -- steady geostrophic flow, the standard correctness test for
// shallow-water cores on the sphere -- in parallel across in-process ranks
// using an SFC partition, and verifies that (a) the flow stays steady,
// (b) mass is conserved to machine precision, and (c) the parallel result is
// bitwise identical to the sequential one.
//
// Run with: go run ./examples/shallowwater
package main

import (
	"fmt"
	"log"
	"math"
	"slices"

	"sfccube/internal/core"
	"sfccube/internal/seam"
)

func main() {
	const ne, degree, ranks, steps = 4, 7, 6, 30

	grid, err := seam.NewGrid(ne, degree, seam.EarthRadius, seam.EarthOmega)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid: %d elements x %dx%d GLL points (%d dof per field)\n",
		grid.NumElems(), grid.Np, grid.Np, grid.NumElems()*grid.PointsPerElem())

	// Williamson 2: solid-body zonal flow in geostrophic balance.
	u0 := 2 * math.Pi * grid.Radius / (12 * 86400)
	wind, phi := seam.Williamson2(grid.Radius, grid.Omega, u0, 2.94e4)

	// Sequential reference.
	seq, err := seam.NewShallowWater(grid)
	if err != nil {
		log.Fatal(err)
	}
	seq.SetState(wind, phi)
	dt := seq.MaxStableDt(0.4)
	for s := 0; s < steps; s++ {
		seq.Step(dt)
	}

	// Parallel run over an SFC partition.
	res, err := core.PartitionCubedSphere(core.Config{Ne: ne, NProcs: ranks})
	if err != nil {
		log.Fatal(err)
	}
	par, err := seam.NewShallowWater(grid)
	if err != nil {
		log.Fatal(err)
	}
	par.SetState(wind, phi)
	mass0 := par.TotalMass()
	runner, err := seam.NewRunner(par, res.Partition.Assignment(), ranks)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := runner.Run(steps, dt)

	fmt.Printf("integrated %d RK4 steps (dt=%.0f s) on %d ranks in %v\n",
		steps, dt, ranks, elapsed.Round(1000))
	fmt.Printf("steady-state error: %.3e (relative L2 in geopotential)\n",
		par.PhiL2Error(phi))
	fmt.Printf("mass drift:         %.3e (relative)\n",
		math.Abs(par.TotalMass()-mass0)/mass0)

	fmt.Printf("parallel == sequential (bitwise): %v\n", slices.Equal(par.Phi, seq.Phi))

	bytes := runner.BytesPerStep()
	var total int64
	for _, b := range bytes {
		total += b
	}
	fmt.Printf("boundary exchange: %d bytes/step across all ranks, %d metered flops/step\n",
		total, par.Flops/int64(steps))
}
