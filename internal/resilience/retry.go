package resilience

import (
	"context"
	"errors"
	"time"

	"sfccube/internal/prng"
)

// Jitter is a seeded decorrelated-jitter backoff stream: each draw is
// uniform in [base, 3*prev] capped at 10*base, so synchronized clients spread
// out instead of retrying in lockstep, while the whole sleep sequence
// stays a pure function of the seed — same seed, same sequence, which is
// what makes backoff schedules replayable in tests. A nil *Jitter (or a
// non-positive base) yields an all-zero stream.
type Jitter struct {
	state      uint64
	base, prev time.Duration
}

// NewJitter returns a jitter stream starting at base.
func NewJitter(seed uint64, base time.Duration) *Jitter {
	return &Jitter{state: seed, base: base, prev: base}
}

// Next returns the next backoff in the stream.
func (j *Jitter) Next() time.Duration {
	if j == nil || j.base <= 0 {
		return 0
	}
	j.state = prng.Mix(j.state)
	d := j.base
	if span := 3*j.prev - j.base; span > 0 {
		d += time.Duration(j.state % uint64(span))
	}
	if d > 10*j.base {
		d = 10 * j.base
	}
	j.prev = d
	return d
}

// RetrySpec configures Retry. Zero-valued fields take the documented
// defaults.
type RetrySpec struct {
	// MaxAttempts is the total number of op invocations (default 3).
	MaxAttempts int
	// Base is the first backoff (default 10ms); every backoff is bounded by
	// 10*Base.
	Base time.Duration
	// Seed seeds the decorrelated-jitter stream; the full sleep sequence
	// is a pure function of it.
	Seed uint64
}

// Retry runs op up to spec.MaxAttempts times, sleeping a capped
// exponential backoff with seeded decorrelated jitter between attempts
// and honouring ctx while sleeping. It returns nil on the first success;
// otherwise the last error — when attempts are exhausted or when ctx expires
// (a context error from op, or ctx going done mid-wait, both stop the loop).
func Retry(ctx context.Context, spec RetrySpec, op func(ctx context.Context) error) error {
	attempts := spec.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	base := spec.Base
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	j := NewJitter(spec.Seed, base)
	var err error
	for a := 1; ; a++ {
		if err = op(ctx); err == nil {
			return nil
		}
		if a >= attempts || ctx.Err() != nil ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if !sleepCtx(ctx, j.Next()) {
			return err
		}
	}
}

// sleepCtx sleeps for d unless ctx expires first; it reports whether the
// full wait completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
