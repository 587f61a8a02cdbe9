package supervise

import "testing"

// TestPlanErrorTexts pins the error texts of the fault kind@value[:param]
// grammar, which shares one splitter (resilience.SplitPlan) with the chaos
// grammar but keeps its own wording (the chaos half is in
// internal/resilience).
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
	if f, err := ParseFaults("NaN @ 3 : 2"); err != nil || len(f) != 1 || f[0] != (Fault{Kind: FaultNaN, Step: 3, Rank: 2}) {
		t.Errorf("ParseFaults tolerates case and spaces: %v, %v", f, err)
	}
}
