package resilience

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestParseChaosPlan(t *testing.T) {
	plan, err := ParseChaosPlan("slowresp@0.2:40ms, droppedconn@0.1, computestall@0.15:80ms, errinject@0.25", 7)
	if err != nil {
		t.Fatal(err)
	}
	want := []ChaosSpec{
		{Kind: ChaosSlowResp, Rate: 0.2, Param: 40 * time.Millisecond},
		{Kind: ChaosDroppedConn, Rate: 0.1, Param: DefaultChaosParam},
		{Kind: ChaosComputeStall, Rate: 0.15, Param: 80 * time.Millisecond},
		{Kind: ChaosErrInject, Rate: 0.25, Param: DefaultChaosParam},
	}
	if got := plan.specs; !reflect.DeepEqual(got, want) {
		t.Errorf("specs %v, want %v", got, want)
	}
	if plan.seed != 7 {
		t.Errorf("seed %d, want 7", plan.seed)
	}
}

func TestParseChaosPlanErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"  , ,",
		"slowresp",            // no rate
		"bogus@0.5",           // unknown kind
		"slowresp@1.5",        // rate out of range
		"slowresp@-0.1",       // negative rate
		"slowresp@0.5:banana", // bad duration
		"slowresp@0.5:-10ms",  // non-positive duration
		"errinject@0.5:10ms",  // untimed kind with a param
		"droppedconn@0.5:1s",  // untimed kind with a param
	} {
		if _, err := ParseChaosPlan(spec, 1); err == nil {
			t.Errorf("ParseChaosPlan(%q) accepted", spec)
		}
	}
}

// TestChaosPlanReplayIdentical is the seed contract: the decision for
// request n is a pure function of (seed, plan, n), so two plans built
// from the same inputs replay the identical fault sequence.
func TestChaosPlanReplayIdentical(t *testing.T) {
	const spec = "slowresp@0.3:20ms,droppedconn@0.15,computestall@0.25:60ms,errinject@0.2"
	decisions := func(seed uint64) []string {
		plan, err := ParseChaosPlan(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 64)
		for n := range out {
			if sp, ok := plan.DecideAt(uint64(n)); ok {
				out[n] = sp.Kind.String()
			} else {
				out[n] = "-"
			}
		}
		return out
	}
	a, b := decisions(7), decisions(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different decision sequences:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, decisions(8)) {
		t.Error("distinct seeds produced identical decision sequences")
	}
	// The plan actually injects: with a combined rate of ~0.9 per request
	// something must fire in 64 draws, and with rates < 1 something must
	// not.
	fired, skipped := 0, 0
	for _, d := range a {
		if d == "-" {
			skipped++
		} else {
			fired++
		}
	}
	if fired == 0 || skipped == 0 {
		t.Errorf("degenerate decision sequence: fired=%d skipped=%d", fired, skipped)
	}
}

// TestChaosPlanNextCountsRequests: Next advances the shared counter and
// matches DecideAt at the same index.
func TestChaosPlanNextCountsRequests(t *testing.T) {
	plan := NewChaosPlan(3, ChaosSpec{Kind: ChaosErrInject, Rate: 0.5, Param: DefaultChaosParam})
	for n := uint64(0); n < 32; n++ {
		wantSp, wantOK := plan.DecideAt(n)
		gotSp, gotOK := plan.Next()
		if gotOK != wantOK || gotSp != wantSp {
			t.Fatalf("request %d: Next=(%v,%v), DecideAt=(%v,%v)", n, gotSp, gotOK, wantSp, wantOK)
		}
	}
	if got := plan.n.Load(); got != 32 {
		t.Errorf("request counter = %d, want 32", got)
	}
}

func TestChaosPlanNilSafe(t *testing.T) {
	var p *ChaosPlan
	if _, ok := p.Next(); ok {
		t.Error("nil plan injected")
	}
	if _, ok := p.DecideAt(0); ok {
		t.Error("nil plan decided")
	}
}

func TestChaosRateBounds(t *testing.T) {
	// Rate 0 never fires, rate 1 always fires.
	never := NewChaosPlan(9, ChaosSpec{Kind: ChaosErrInject, Rate: 0})
	always := NewChaosPlan(9, ChaosSpec{Kind: ChaosErrInject, Rate: 1})
	for n := uint64(0); n < 256; n++ {
		if _, ok := never.DecideAt(n); ok {
			t.Fatalf("rate-0 plan fired at %d", n)
		}
		if _, ok := always.DecideAt(n); !ok {
			t.Fatalf("rate-1 plan skipped %d", n)
		}
	}
}

func TestChaosKindString(t *testing.T) {
	if got := ChaosSlowResp.String(); got != "slowresp" {
		t.Errorf("String() = %q", got)
	}
	if got := fmt.Sprint(ChaosKind(99)); got != "ChaosKind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}
