package resilience

import "testing"

// TestPlanErrorTexts pins the error texts of the chaos kind@value[:param]
// grammar, which shares one splitter (SplitPlan) with the run supervisor's
// fault grammar but keeps its own wording (the fault half is in
// internal/seam/supervise).
func TestPlanErrorTexts(t *testing.T) {
	chaos := map[string]string{
		",":                   `resilience: empty chaos specification ","`,
		"slowresp":            `resilience: chaos entry "slowresp": want kind@rate[:param]`,
		"bogus@0.1":           `resilience: unknown chaos kind "bogus" (want one of slowresp, droppedconn, computestall, errinject)`,
		"slowresp@2":          `resilience: chaos entry "slowresp@2": bad rate "2" (want [0,1])`,
		"droppedconn@0.1:5ms": `resilience: chaos entry "droppedconn@0.1:5ms": droppedconn takes no duration parameter`,
		"slowresp@0.1: zz":    `resilience: chaos entry "slowresp@0.1: zz": bad duration " zz"`,
	}
	for spec, want := range chaos {
		if _, err := ParseChaosPlan(spec, 1); err == nil || err.Error() != want {
			t.Errorf("ParseChaosPlan(%q): %v, want %s", spec, err, want)
		}
	}
}
