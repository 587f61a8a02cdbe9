package experiments

import (
	"fmt"

	"sfccube/internal/trace"
)

// ModelFidelity cross-checks the analytic machine model (package machine)
// against the discrete-event simulator (package trace) on the Table-2
// configuration: if the paper's conclusions depended on modelling artefacts,
// the two models would rank the partitioners differently.
func ModelFidelity(seed int64) (*Table, error) {
	t := &Table{
		Name:    "fidelity",
		Title:   "Model fidelity: analytic formulas vs discrete-event simulation (K=1536, 768 procs)",
		Headers: []string{"method", "analytic us/step", "event-driven us/step", "ratio"},
	}
	const ne, nproc = 16, 768
	s, err := NewSetup("fidelity", ne)
	if err != nil {
		return nil, err
	}
	for _, method := range methodNames {
		m, err := s.run(method, nproc, seed, nil)
		if err != nil {
			return nil, err
		}
		ev, err := trace.SimulateStep(s.Mesh, m.p, s.Workload, s.Model)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			method,
			fmt.Sprintf("%.0f", m.rep.StepTime*1e6),
			fmt.Sprintf("%.0f", ev.StepTime*1e6),
			fmt.Sprintf("%.2f", ev.StepTime/m.rep.StepTime),
		})
	}
	t.Notes = append(t.Notes,
		"the event-driven model schedules every message through the shared node adapters; agreement within tens of percent and identical ranking mean the headline figures are not modelling artefacts")
	return t, nil
}
