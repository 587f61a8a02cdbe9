package resilience

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestJitterDeterministicAndBounded: the stream is a pure function of the
// seed, every draw stays in [base, cap], and distinct seeds diverge.
func TestJitterDeterministicAndBounded(t *testing.T) {
	const base, cap = 5 * time.Millisecond, 50 * time.Millisecond // cap = 10*base
	seq := func(seed uint64) []time.Duration {
		j := NewJitter(seed, base)
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = j.Next()
		}
		return out
	}
	a, b := seq(42), seq(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different sequences:\n%v\n%v", a, b)
	}
	for i, d := range a {
		if d < base || d > cap {
			t.Errorf("draw %d = %v outside [%v, %v]", i, d, base, cap)
		}
	}
	if reflect.DeepEqual(a, seq(43)) {
		t.Error("distinct seeds produced identical sequences")
	}
	// Decorrelation sanity: the draws are not all the base value.
	same := true
	for _, d := range a {
		if d != a[0] {
			same = false
		}
	}
	if same {
		t.Errorf("no jitter in the stream: %v", a)
	}
}

func TestJitterZeroBaseAndNil(t *testing.T) {
	if d := NewJitter(1, 0).Next(); d != 0 {
		t.Errorf("zero base drew %v", d)
	}
	var j *Jitter
	if d := j.Next(); d != 0 {
		t.Errorf("nil jitter drew %v", d)
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetrySpec{
		MaxAttempts: 5,
		Base:        time.Microsecond,
		Seed:        7,
	}, func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 3 {
		t.Errorf("op ran %d times, want 3", calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	wantErr := errors.New("permanent")
	err := Retry(context.Background(), RetrySpec{MaxAttempts: 4, Base: time.Microsecond},
		func(context.Context) error { calls++; return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want the op error", err)
	}
	if calls != 4 {
		t.Errorf("op ran %d times, want MaxAttempts=4", calls)
	}
}

func TestRetryStopsOnContextError(t *testing.T) {
	// An op returning a context error stops immediately even with budget
	// left — retrying a dead context is pure waste.
	calls := 0
	err := Retry(context.Background(), RetrySpec{MaxAttempts: 5, Base: time.Microsecond},
		func(context.Context) error { calls++; return fmt.Errorf("wrapped: %w", context.DeadlineExceeded) })
	if !errors.Is(err, context.DeadlineExceeded) || calls != 1 {
		t.Errorf("context error retried: calls=%d err=%v", calls, err)
	}

	// A cancelled ctx stops the loop between attempts.
	ctx, cancel := context.WithCancel(context.Background())
	calls = 0
	err = Retry(ctx, RetrySpec{MaxAttempts: 5, Base: time.Hour}, func(context.Context) error {
		calls++
		cancel()
		return errors.New("transient")
	})
	if err == nil || calls != 1 {
		t.Errorf("cancelled ctx: calls=%d err=%v (an hour-long backoff would have hung)", calls, err)
	}
}

// TestRetryDeterministicSchedule: the seed picks the sleeps (Jitter's stream,
// pinned by TestJitterDeterministicAndBounded), never the number of attempts.
func TestRetryDeterministicSchedule(t *testing.T) {
	for _, seed := range []uint64{11, 12} {
		calls := 0
		_ = Retry(context.Background(), RetrySpec{
			MaxAttempts: 6,
			Base:        time.Microsecond,
			Seed:        seed,
		}, func(context.Context) error { calls++; return errors.New("always") })
		if calls != 6 {
			t.Errorf("seed %d: op ran %d times, want MaxAttempts=6", seed, calls)
		}
	}
}
