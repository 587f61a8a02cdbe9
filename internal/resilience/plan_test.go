package resilience

import "testing"

// TestPlanErrorTexts pins the error texts of the two kind@value[:param]
// grammars, which share one splitter (splitPlan) but keep their own wording.
func TestPlanErrorTexts(t *testing.T) {
	faults := map[string]string{
		" , ":      `resilience: empty fault specification " , "`,
		"nan":      `resilience: fault "nan": want kind@step[:rank]`,
		"bogus@1":  `resilience: unknown fault kind "bogus" (want one of nan, rankdeath, stall, corruptckpt, parttimeout)`,
		"nan@ -1":  `resilience: fault "nan@ -1": bad step " -1"`,
		"nan@1: y": `resilience: fault "nan@1: y": bad rank " y"`,
	}
	for spec, want := range faults {
		if _, err := ParseFaults(spec); err == nil || err.Error() != want {
			t.Errorf("ParseFaults(%q): %v, want %s", spec, err, want)
		}
	}
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
	if f, err := ParseFaults("NaN @ 3 : 2"); err != nil || len(f) != 1 || f[0] != (Fault{Kind: FaultNaN, Step: 3, Rank: 2}) {
		t.Errorf("ParseFaults tolerates case and spaces: %v, %v", f, err)
	}
}
