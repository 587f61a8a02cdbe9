package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sfccube/internal/check"
	"sfccube/internal/partition"
)

// TestAuditRejectsFlippedCell is the mutation check of the measured cell: a
// figure cell's partition passes the audit with the statistics swept from
// it, and one assignment entry flipped after the sweep makes the audit
// reject the pair, naming the experiment, the method and the part count.
func TestAuditRejectsFlippedCell(t *testing.T) {
	s, err := NewSetup("fig7", 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Partition("KWAY", 96, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Problem.Stats(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.audit("KWAY", "KWAY", p, st); err != nil {
		t.Fatalf("pristine cell rejected: %v", err)
	}
	p.SetPart(0, (p.Part(0)+1)%p.NumParts())
	_, err = s.audit("KWAY", "KWAY", p, st)
	if err == nil {
		t.Fatal("audit accepted statistics of a partition flipped after the sweep")
	}
	for _, name := range []string{"fig7", "KWAY", "nproc=96"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("audit error %q does not name %s", err, name)
		}
	}
}

// TestAMRAuditsForestCells requires the amr experiment (cmd/experiments
// -run amr) to audit its forest cells: with the CURVE method's split
// corrupted into a scatter (element v to part v mod nproc, the shape of a
// split that lost the curve order), the compactness ceiling must reject the
// first cell, and the error must name it.
func TestAMRAuditsForestCells(t *testing.T) {
	curve := amrMethods[0]
	t.Cleanup(func() { amrMethods[0] = curve })
	amrMethods[0].run = func(af *amrForest, c AMRCase) (*partition.Partition, error) {
		p, err := curve.run(af, c)
		if err != nil {
			return nil, err
		}
		for v := 0; v < p.NumVertices(); v++ {
			p.SetPart(v, v%c.NProcs)
		}
		return p, nil
	}
	_, err := AMRPartition(1)
	if err == nil {
		t.Fatal("amr accepted a scattered CURVE partition")
	}
	for _, name := range []string{"amr", "CURVE", "nproc=16", "compactness ceiling"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("audit error %q does not name %s", err, name)
		}
	}
}

// TestGoldenBytesCarryMutations is the golden half of check's
// TestMutationOracleNotVacuous: each metric a mutant moves — the edgecut of
// a cross-part swap of interior elements, the balance of a single move —
// changes the bytes of the GoldenCase GoldenMetrics freezes, so a golden that
// stopped carrying edgecut or lb_nelemd would encode both alike.
func TestGoldenBytesCarryMutations(t *testing.T) {
	const ne, nprocs = 8, 16
	s, err := NewSetup("golden", ne)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.run("SFC", nprocs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Problem.Graph()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(mt check.Metrics) []byte {
		c := GoldenCase{Ne: ne, NProcs: nprocs, Method: "SFC", Seed: 1}
		b, err := json.Marshal(c.frozen(mt))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pristine := encode(m.mt)
	// An element of part q all of whose neighbours are in q.
	interiorOf := func(q int) int {
		for v := 0; v < g.NumVertices(); v++ {
			interior := m.p.Part(v) == q
			for _, u := range g.Adj(v) {
				interior = interior && m.p.Part(int(u)) == q
			}
			if interior {
				return v
			}
		}
		t.Fatalf("no interior element in part %d", q)
		return -1
	}
	a, b := interiorOf(0), interiorOf(nprocs-1)
	mutant := func(moves map[int]int) check.Metrics {
		q, err := partition.FromAssignment(append([]int32(nil), m.p.Assignment()...), nprocs)
		if err != nil {
			t.Fatal(err)
		}
		for v, part := range moves {
			q.SetPart(v, part)
		}
		mt, err := check.ComputeMetrics(g, q)
		if err != nil {
			t.Fatal(err)
		}
		return mt
	}

	swapped := mutant(map[int]int{a: nprocs - 1, b: 0})
	edgeCutOnly := m.mt
	edgeCutOnly.EdgeCut = swapped.EdgeCut
	if swapped.EdgeCut == m.mt.EdgeCut || bytes.Equal(encode(edgeCutOnly), pristine) {
		t.Errorf("golden bytes missed the edgecut change %d -> %d", m.mt.EdgeCut, swapped.EdgeCut)
	}

	moved := mutant(map[int]int{a: nprocs - 1})
	lbOnly := m.mt
	lbOnly.LBNelemd = moved.LBNelemd
	if moved.LBNelemd == 0 || bytes.Equal(encode(lbOnly), pristine) {
		t.Errorf("golden bytes missed the LB change %g -> %g", m.mt.LBNelemd, moved.LBNelemd)
	}
}
