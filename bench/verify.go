package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"sfccube/internal/check"
	"sfccube/internal/graph"
	"sfccube/internal/machine"
	"sfccube/internal/mesh"
	"sfccube/internal/partition"
	"sfccube/internal/service"
	"sfccube/internal/weights"
)

// verifier checks kept responses against substrates it builds itself, one
// per mesh size, independently of anything the service computed.
type verifier struct {
	subs  map[int]*substrate
	model machine.Model
	load  machine.Workload
}

type substrate struct {
	m *mesh.Mesh
	g *graph.Graph
}

func newVerifier() *verifier {
	return &verifier{subs: map[int]*substrate{}, model: machine.NCARP690(), load: machine.DefaultWorkload()}
}

func (v *verifier) substrate(ne int) (*substrate, error) {
	if s := v.subs[ne]; s != nil {
		return s, nil
	}
	m, err := mesh.New(ne)
	if err != nil {
		return nil, err
	}
	g, err := graph.FromMesh(m, graph.DefaultOptions())
	if err != nil {
		return nil, err
	}
	v.subs[ne] = &substrate{m, g}
	return v.subs[ne], nil
}

// decodeResponse parses a /v1/partition body, or reassembles the assignment
// from a /v1/partition/stream body after checking the chunk layout the
// header line announces.
func decodeResponse(body []byte, stream bool) (*service.Response, error) {
	var resp service.Response
	if !stream {
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, len(body)+1)
	if !sc.Scan() {
		return nil, fmt.Errorf("stream: no header line")
	}
	var hdr struct {
		service.Response
		Chunks    int `json:"chunks"`
		ChunkSize int `json:"chunk_size"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("stream header: %w", err)
	}
	resp = hdr.Response
	chunks := 0
	for sc.Scan() {
		var line struct {
			Offset     int     `json:"offset"`
			Assignment []int32 `json:"assignment"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("stream chunk %d: %w", chunks, err)
		}
		if line.Offset != len(resp.Assignment) {
			return nil, fmt.Errorf("stream chunk %d: offset %d, want %d", chunks, line.Offset, len(resp.Assignment))
		}
		resp.Assignment = append(resp.Assignment, line.Assignment...)
		chunks++
	}
	if chunks != hdr.Chunks {
		return nil, fmt.Errorf("stream: %d chunks, header announced %d", chunks, hdr.Chunks)
	}
	return &resp, nil
}

// check verifies one kept response in depth and returns the parallel
// efficiency of its partition under the machine model.
func (v *verifier) check(rq *request, stream bool, body []byte) (float64, error) {
	resp, err := decodeResponse(body, stream)
	if err != nil {
		return 0, err
	}
	req := rq.req
	k := 6 * req.Ne * req.Ne
	switch {
	case resp.Ne != req.Ne || resp.NParts != req.NParts:
		return 0, fmt.Errorf("response is for ne=%d nparts=%d, asked ne=%d nparts=%d", resp.Ne, resp.NParts, req.Ne, req.NParts)
	case resp.Degraded || len(resp.BreakerSkipped) > 0:
		return 0, fmt.Errorf("degraded or breaker-skipped response")
	case len(resp.Assignment) != k:
		return 0, fmt.Errorf("assignment has %d entries, want %d", len(resp.Assignment), k)
	}
	sub, err := v.substrate(req.Ne)
	if err != nil {
		return 0, err
	}
	p, err := partition.FromAssignment(resp.Assignment, resp.NParts)
	if err != nil {
		return 0, err
	}
	if err := check.ValidatePartition(sub.g, p); err != nil {
		return 0, err
	}
	if err := check.CrossCheckStats(sub.g, p); err != nil {
		return 0, err
	}

	// The stats the response carries must be the stats of the assignment it
	// carries, under the request's load model.
	g := sub.g
	var w []int64
	var wf []float64
	if req.WeightsSpec != "" {
		spec, err := weights.Parse(req.WeightsSpec)
		if err != nil {
			return 0, err
		}
		w = spec.Generate(sub.m)
		w32, err := weights.Int32(w)
		if err != nil {
			return 0, err
		}
		// A graph of its own: the shared one stays unweighted.
		if g, err = graph.FromMesh(sub.m, graph.DefaultOptions()); err != nil {
			return 0, err
		}
		if err := g.SetVertexWeights(w32); err != nil {
			return 0, err
		}
		wf = make([]float64, len(w))
		for i, x := range w {
			wf[i] = float64(x)
		}
	}
	st, err := partition.ComputeStatsWeighted(g, p, w)
	if err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(st, resp.Stats) {
		return 0, fmt.Errorf("response stats differ from the stats of its assignment (edgecut %d vs %d, LB %g vs %g)",
			resp.Stats.EdgeCut, st.EdgeCut, resp.Stats.LBNelemd, st.LBNelemd)
	}

	step, err := machine.SimulateStep(sub.m, p, v.load, v.model, wf)
	if err != nil {
		return 0, err
	}
	serial, err := machine.SerialStep(sub.m, v.load, v.model, wf)
	if err != nil {
		return 0, err
	}
	return machine.Speedup(serial, step) / float64(resp.NParts), nil
}

// simPoint is the modelled efficiency of one verified response.
type simPoint struct {
	idx int
	req int32
	eff float64
}

// checkSamples verifies every kept response of a pass over seq.
func (v *verifier) checkSamples(w *svcWorkload, seq []opRef, samples []sample) ([]simPoint, []error) {
	sort.Slice(samples, func(a, b int) bool { return samples[a].idx < samples[b].idx })
	var pts []simPoint
	var errs []error
	for _, s := range samples {
		ref := seq[s.idx]
		eff, err := v.check(&w.requests[ref.req], ref.stream, s.body)
		if err != nil {
			errs = append(errs, fmt.Errorf("verifying op %d: %w", s.idx, err))
			continue
		}
		pts = append(pts, simPoint{s.idx, ref.req, eff})
	}
	return pts, errs
}

// simEfficiency is the mean modelled parallel efficiency (machine.Speedup /
// nparts on NCARP690 with the default SEAM workload) over a fixed set of
// verified partitions, each request once: the hot set as answered in set-up,
// plus the sampled timed ops below simOps that are not reads of the hot set.
// The value repeats exactly for a seed however many ops the window completed.
func simEfficiency(w *svcWorkload, preload, timed []simPoint) float64 {
	var effs []float64
	for _, p := range preload {
		effs = append(effs, p.eff)
	}
	for _, p := range timed {
		if p.idx < w.simOps && !w.requests[p.req].preloaded {
			effs = append(effs, p.eff)
		}
	}
	return mean(effs)
}
