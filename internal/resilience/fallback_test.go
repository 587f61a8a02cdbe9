package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"sfccube/internal/core"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
)

func TestFallbackFirstLinkWins(t *testing.T) {
	res, err := PartitionWithFallback(context.Background(), NewFallbackSpec(4, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyKWay || len(res.Attempts) != 0 {
		t.Fatalf("got strategy %s with %d attempts, want clean KWAY", res.Strategy, len(res.Attempts))
	}
	if got := res.Partition.NumParts(); got != 6 {
		t.Errorf("partition has %d parts, want 6", got)
	}
	if res.String() != "KWAY" {
		t.Errorf("String() = %q", res.String())
	}
}

// TestFallbackExpiredDeadline: with the deadline already blown, the METIS
// strategies must fail fast and the chain must land on SFC, which
// deliberately ignores the expired context.
func TestFallbackExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	res, err := PartitionWithFallback(ctx, NewFallbackSpec(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategySFC {
		t.Fatalf("got strategy %s, want SFC", res.Strategy)
	}
	if len(res.Attempts) != 2 {
		t.Fatalf("got %d attempts %v, want KWAY and RB", len(res.Attempts), res.Attempts)
	}
	for _, a := range res.Attempts {
		if !errors.Is(a.Err, context.DeadlineExceeded) {
			t.Errorf("%s attempt error %v does not unwrap to DeadlineExceeded", a.Strategy, a.Err)
		}
	}
	if got := res.String(); got != "KWAY→RB→SFC" {
		t.Errorf("String() = %q, want KWAY→RB→SFC", got)
	}
}

// TestFallbackUnsupportedNe: Ne=5 has no 2^n 3^m factorisation, so the SFC
// link must fail with a typed *UnsupportedNeError and the serpentine
// ordering (any Ne) must take over.
func TestFallbackUnsupportedNe(t *testing.T) {
	spec := NewFallbackSpec(5, 10)
	spec.Chain = RepartitionChain
	res, err := PartitionWithFallback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategySerpentine {
		t.Fatalf("got strategy %s, want SERPENTINE", res.Strategy)
	}
	if len(res.Attempts) != 1 {
		t.Fatalf("attempts: %v", res.Attempts)
	}
	var une *UnsupportedNeError
	if !errors.As(res.Attempts[0].Err, &une) || une.Ne != 5 {
		t.Errorf("SFC attempt error %v, want *UnsupportedNeError{Ne:5}", res.Attempts[0].Err)
	}
	counts := res.Partition.Counts()
	for q, c := range counts {
		if c == 0 {
			t.Errorf("serpentine left part %d empty", q)
		}
	}
}

// TestFallbackExhausted: an impossible balance demand fails every link, with
// the METIS links reseeded the configured number of times first.
func TestFallbackExhausted(t *testing.T) {
	// 24 elements into 5 parts cannot balance perfectly, and MaxLB below
	// the unavoidable imbalance rejects everything.
	spec := NewFallbackSpec(2, 5)
	spec.MaxLB = 1e-12
	_, err := PartitionWithFallback(context.Background(), spec)
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("got %v, want *ExhaustedError", err)
	}
	// KWAY×(1+2 retries) + RB×3 + SFC + SERPENTINE = 8 attempts.
	if len(ex.Attempts) != 8 {
		t.Fatalf("got %d attempts: %v", len(ex.Attempts), ex)
	}
	for _, a := range ex.Attempts {
		var be *BalanceError
		if !errors.As(a.Err, &be) {
			t.Errorf("%s attempt: %v, want *BalanceError", a.Strategy, a.Err)
		}
	}
	// Reseeded retries must actually use fresh seeds.
	if ex.Attempts[0].Seed == ex.Attempts[1].Seed {
		t.Error("KWAY retry reused the failed seed")
	}
}

func TestFallbackAcceptAnyBalance(t *testing.T) {
	// MaxLB < 0 accepts the first partition that is merely non-degenerate.
	spec := NewFallbackSpec(2, 5)
	spec.MaxLB = -1
	res, err := PartitionWithFallback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyKWay {
		t.Errorf("got %s, want KWAY", res.Strategy)
	}
}

func TestFallbackDeterministic(t *testing.T) {
	spec := NewFallbackSpec(4, 7)
	spec.Seed = 42
	a, err := PartitionWithFallback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionWithFallback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != b.Strategy || a.Seed != b.Seed {
		t.Fatalf("outcomes differ: %s/%d vs %s/%d", a.Strategy, a.Seed, b.Strategy, b.Seed)
	}
	pa, pb := a.Partition.Assignment(), b.Partition.Assignment()
	for v := range pa {
		if pa[v] != pb[v] {
			t.Fatalf("assignment differs at element %d", v)
		}
	}
}

// TestFallbackExplicitStrictBalance: MaxLB = 0 is a
// strict perfect-balance gate, not DefaultMaxLB. 24 elements over 5 parts
// cannot balance perfectly, so every link must be rejected; 96 over 6 can,
// so the SFC split must pass the gate.
func TestFallbackExplicitStrictBalance(t *testing.T) {
	spec := NewFallbackSpec(2, 5)
	spec.MaxLB = 0
	_, err := PartitionWithFallback(context.Background(), spec)
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("MaxLB=0 on an imbalanceable problem: got %v, want *ExhaustedError", err)
	}
	for _, a := range ex.Attempts {
		var be *BalanceError
		if !errors.As(a.Err, &be) {
			t.Errorf("%s attempt: %v, want *BalanceError", a.Strategy, a.Err)
		}
	}

	spec = NewFallbackSpec(4, 6) // 96 elements / 6 parts = 16 each, exactly
	spec.MaxLB = 0
	spec.Chain = []Strategy{StrategySFC}
	res, err := PartitionWithFallback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategySFC || len(res.Attempts) != 0 {
		t.Errorf("perfectly balanceable SFC split rejected by MaxLB=0: %v", res)
	}
}

// TestFallbackExplicitSeedZero: Seed = 0 is recorded as seed 0, not rewritten
// to DefaultSeed.
func TestFallbackExplicitSeedZero(t *testing.T) {
	spec := NewFallbackSpec(4, 6)
	spec.Seed = 0
	res, err := PartitionWithFallback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 0 {
		t.Errorf("explicit Seed=0 recorded as %d", res.Seed)
	}
}

// TestFallbackExpiredDeadlineSerpentine: with the deadline blown AND an Ne
// the SFC construction cannot factor, the chain must still produce a
// partition — METIS links recorded as cancelled attempts, SFC as
// *UnsupportedNeError, serpentine delivering. "A partition is always better
// than none."
func TestFallbackExpiredDeadlineSerpentine(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	res, err := PartitionWithFallback(ctx, NewFallbackSpec(5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategySerpentine {
		t.Fatalf("got strategy %s, want SERPENTINE", res.Strategy)
	}
	if len(res.Attempts) != 3 {
		t.Fatalf("got %d attempts %v, want KWAY, RB, SFC", len(res.Attempts), res.Attempts)
	}
	for _, a := range res.Attempts[:2] {
		if !errors.Is(a.Err, context.DeadlineExceeded) {
			t.Errorf("%s attempt error %v does not unwrap to DeadlineExceeded", a.Strategy, a.Err)
		}
	}
	var une *UnsupportedNeError
	if !errors.As(res.Attempts[2].Err, &une) {
		t.Errorf("SFC attempt error %v, want *UnsupportedNeError", res.Attempts[2].Err)
	}
	if got := res.Partition.NumParts(); got != 10 {
		t.Errorf("partition has %d parts, want 10", got)
	}
}

// TestChainChargesEachLinkItsOwnTime: a breaker hears about its own link
// only — the link's own outcome and the time that link alone took. KWAY is
// swapped for a stub that burns 400 ms and fails; RB then answers in
// milliseconds and must not inherit KWAY's 400 ms against its 200 ms budget.
func TestChainChargesEachLinkItsOwnTime(t *testing.T) {
	for i, m := range core.Methods {
		if m.Name == "kway" {
			t.Cleanup(func() { core.Methods[i] = m })
			core.Methods[i].Run = func(context.Context, *core.Problem, int, int64, *obs.Registry) (*partition.Partition, error) {
				time.Sleep(400 * time.Millisecond)
				return nil, errors.New("kway stub: slow and broken")
			}
		}
	}
	cfg := BreakerConfig{FailureThreshold: 1, LatencyBudget: 200 * time.Millisecond}
	kway, rb := NewBreaker(cfg), NewBreaker(cfg)
	spec := NewFallbackSpec(4, 8)
	spec.Chain = []Strategy{StrategyKWay, StrategyRB}
	spec.Breakers = map[Strategy]*Breaker{StrategyKWay: kway, StrategyRB: rb}
	res, err := PartitionWithFallback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyRB || len(res.Attempts) != 1 || len(res.Skipped) != 0 {
		t.Fatalf("got %s with attempts %v, skipped %v; want RB after one KWAY failure", res.Strategy, res.Attempts, res.Skipped)
	}
	if kway.State() != BreakerOpen {
		t.Errorf("KWAY breaker %v after its link failed, want open (one failure recorded)", kway.State())
	}
	if rb.State() != BreakerClosed {
		t.Errorf("RB breaker %v: a healthy link was charged for its predecessor's time", rb.State())
	}

	// The open KWAY breaker now refuses its link, and the walk says so.
	res, err = PartitionWithFallback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategyRB || len(res.Attempts) != 0 || len(res.Skipped) != 1 || res.Skipped[0] != StrategyKWay {
		t.Fatalf("got %s with attempts %v, skipped %v; want RB with KWAY skipped", res.Strategy, res.Attempts, res.Skipped)
	}
}

func TestFallbackBadArgs(t *testing.T) {
	if _, err := PartitionWithFallback(context.Background(), NewFallbackSpec(0, 1)); err == nil {
		t.Error("Ne=0 accepted")
	}
	if _, err := PartitionWithFallback(context.Background(), NewFallbackSpec(2, 25)); err == nil {
		t.Error("NProcs > K accepted")
	}
	spec := NewFallbackSpec(2, 2)
	spec.Chain = []Strategy{"BOGUS", StrategySFC}
	res, err := PartitionWithFallback(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategySFC || len(res.Attempts) != 1 {
		t.Errorf("unknown strategy not skipped: %v", res)
	}
}
