// Climate-resolution study: the paper's production scenario.
//
// Climate simulation requires century-long integrations at relatively coarse
// resolution and high parallelism: O(1) to O(10) elements per processor
// (paper, section 1). This example sweeps the paper's four test resolutions
// (Table 1) across their equal-elements processor counts and compares the
// SFC partitioner against the METIS-style baselines on the modelled NCAR
// P690, printing the processor count where the SFC advantage first appears
// -- the paper finds it "above 50 processors where each processor contains
// less than eight spectral elements".
//
// Run with: go run ./examples/climate
package main

import (
	"context"
	"fmt"
	"log"

	"sfccube/internal/core"
	"sfccube/internal/machine"
)

func main() {
	for _, ne := range []int{8, 9, 16, 18} {
		if err := study(ne); err != nil {
			log.Fatal(err)
		}
	}
}

func study(ne int) error {
	prob, err := core.NewProblem(ne)
	if err != nil {
		return err
	}
	w := machine.DefaultWorkload()
	mod := machine.NCARP690()
	stepTime := func(method string, nproc int) (float64, error) {
		p, err := core.Run(context.Background(), method, prob, nproc, 0, nil)
		if err != nil {
			return 0, err
		}
		rep, err := machine.SimulateStep(prob.Mesh(), p, w, mod, nil)
		return rep.StepTime, err
	}

	k := prob.Mesh().NumElems()
	fmt.Printf("\nK=%d (Ne=%d)\n", k, ne)
	fmt.Printf("%6s %10s %12s %12s %10s\n", "Nproc", "elem/proc", "SFC us/step", "best METIS", "SFC gain")

	crossover := -1
	for _, nproc := range core.EqualProcCounts(ne) {
		if nproc == 1 || nproc > 768 {
			continue
		}
		sfcTime, err := stepTime("sfc", nproc)
		if err != nil {
			return err
		}
		best := 0.0
		for _, method := range []string{"rb", "kway", "tv"} {
			t, err := stepTime(method, nproc)
			if err != nil {
				return err
			}
			if best == 0 || t < best {
				best = t
			}
		}
		gain := best/sfcTime - 1
		fmt.Printf("%6d %10d %12.0f %12.0f %9.1f%%\n",
			nproc, k/nproc, sfcTime*1e6, best*1e6, gain*100)
		if crossover < 0 && gain > 0.02 {
			crossover = nproc
		}
	}
	if crossover > 0 {
		fmt.Printf("SFC advantage (>2%%) first appears at %d processors (%d elements/proc)\n",
			crossover, k/crossover)
	}
	return nil
}
