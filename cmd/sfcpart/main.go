// Command sfcpart partitions a cubed-sphere mesh and prints the quality
// statistics of Table 2: per-processor element counts, the load balance
// measure LB of equation (1), edgecut, and communication volumes.
//
// Usage:
//
//	sfcpart -ne 16 -nproc 768                 # SFC (the paper's algorithm)
//	sfcpart -ne 16 -nproc 768 -method kway    # METIS-style baselines
//	sfcpart -ne 12 -nproc 96 -order hilbert-first
//	sfcpart -ne 8 -nproc 24 -assign           # dump element -> processor
//	sfcpart -ne 8 -nproc 24 -save part.txt    # save for later use
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sfccube/internal/core"
	"sfccube/internal/machine"
	"sfccube/internal/mesh"
	"sfccube/internal/sfc"
)

func main() {
	ne := flag.Int("ne", 8, "elements per cube-face edge (2^n * 3^m for SFC)")
	nproc := flag.Int("nproc", 4, "number of processors")
	method := flag.String("method", "sfc", "partitioner: sfc, serpentine, rb, kway, tv")
	order := flag.String("order", "peano-first", "Hilbert-Peano refinement order: peano-first, hilbert-first, interleaved")
	seed := flag.Int64("seed", 1, "seed for the METIS-style partitioners")
	dumpAssign := flag.Bool("assign", false, "print the element -> processor assignment")
	save := flag.String("save", "", "write the partition to a file (METIS-style text format)")
	flag.Parse()

	if err := run(*ne, *nproc, *method, *order, *seed, *dumpAssign, *save); err != nil {
		fmt.Fprintln(os.Stderr, "sfcpart:", err)
		os.Exit(1)
	}
}

func run(ne, nproc int, method, orderName string, seed int64, dumpAssign bool, save string) error {
	order, ok := map[string]sfc.Order{
		"peano-first": sfc.PeanoFirst, "hilbert-first": sfc.HilbertFirst, "interleaved": sfc.Interleaved,
	}[orderName]
	if !ok {
		return fmt.Errorf("unknown order %q", orderName)
	}
	meth, ok := core.LookupMethod(method)
	if !ok {
		return fmt.Errorf("unknown method %q", method)
	}
	prob, err := core.NewProblem(ne)
	if err != nil {
		return err
	}
	prob.Order = order
	p, err := meth.Run(context.Background(), prob, nproc, seed, nil)
	if err != nil {
		return err
	}
	if meth.Name == "sfc" {
		curve, err := prob.Curve()
		if err != nil {
			return err
		}
		fmt.Printf("SFC schedule: %v over the %d faces (curve length %d)\n",
			curve.Schedule(), mesh.NumFaces, curve.Len())
	}
	m := prob.Mesh()
	st, err := prob.Stats(p)
	if err != nil {
		return err
	}
	fmt.Printf("K=%d elements on %d processors (%s)\n", m.NumElems(), nproc, meth.Name)
	fmt.Printf("  nelemd:      %d .. %d per processor\n", st.MinNelemd, st.MaxNelemd)
	fmt.Printf("  LB(nelemd):  %.4f\n", st.LBNelemd)
	fmt.Printf("  LB(spcv):    %.4f\n", st.LBSpcv)
	fmt.Printf("  edgecut:     %d (weighted %d)\n", st.EdgeCutUnweighted, st.EdgeCut)
	fmt.Printf("  comm volume: %d (METIS objective), %d boundary elements\n",
		st.TotalCommVolume, st.CutVertices)

	rep, err := machine.SimulateStep(m, p, machine.DefaultWorkload(), machine.NCARP690(), nil)
	if err != nil {
		return err
	}
	fmt.Printf("  modelled time/step on P690: %.0f usec (%.2f sustained Gflops, %.1f MB/step)\n",
		rep.StepTime*1e6, rep.SustainedGflops(), float64(rep.TotalCommBytes)/1e6)

	if dumpAssign {
		fmt.Println("element,processor")
		for e := 0; e < m.NumElems(); e++ {
			fmt.Printf("%d,%d\n", e, p.Part(e))
		}
	}
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := p.WriteTo(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", save)
	}
	return nil
}
