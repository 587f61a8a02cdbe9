package resilience

import (
	"sync"
	"time"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int32

const (
	// BreakerClosed admits every call; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects every call until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one probe at a time; enough consecutive
	// probe successes close the breaker, any probe failure re-trips it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// halfOpenProbes is the number of consecutive probe successes that close a
// half-open breaker again.
const halfOpenProbes = 2

// BreakerConfig sizes a Breaker. Zero-valued fields take the documented
// defaults.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker from closed to open (default 5).
	FailureThreshold int
	// LatencyBudget, when positive, counts a successful call slower than
	// the budget as a failure: a method that still answers but blows its
	// latency SLO is pathological too.
	LatencyBudget time.Duration
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Now is the clock (default time.Now); tests inject a deterministic
	// one so state transitions replay exactly.
	Now func() time.Time
	// OnTransition observes every state change. It is called with the
	// breaker's lock held: do not call back into the breaker from it.
	OnTransition func(from, to BreakerState)
}

// Breaker is a closed/open/half-open circuit breaker. A call site asks
// Allow immediately before the call and Record(latency, err) after it; every
// allowed call is made, so every Allow is followed by a Record.
//
// All methods are safe for concurrent use and nil-safe: a nil *Breaker
// always allows and records nothing, so "breaker disabled" needs no
// call-site guards.
type Breaker struct {
	cfg BreakerConfig

	mu             sync.Mutex
	state          BreakerState
	fails          int // consecutive failures while closed
	probeSuccesses int // consecutive probe successes while half-open
	probing        bool
	openedAt       time.Time
}

// NewBreaker builds a Breaker from cfg.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a call may proceed. In the open state it checks
// the cooldown and, once elapsed, transitions to half-open and admits a
// single probe; in half-open it admits a call only while no probe is in
// flight.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probeSuccesses = 0
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports the outcome of an allowed call: a failure is a non-nil
// err, or a success slower than the latency budget.
func (b *Breaker) Record(latency time.Duration, err error) {
	if b == nil {
		return
	}
	fail := err != nil || (b.cfg.LatencyBudget > 0 && latency > b.cfg.LatencyBudget)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if !fail {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probing = false
		if fail {
			b.trip()
			return
		}
		b.probeSuccesses++
		if b.probeSuccesses >= halfOpenProbes {
			b.fails = 0
			b.transition(BreakerClosed)
		}
	case BreakerOpen:
		// Outcome of a call admitted before the trip landed; the open
		// state already reflects the worst, so nothing to update.
	}
}

// State returns the current state (BreakerClosed on a nil receiver).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// trip moves to open and stamps the cooldown clock. Caller holds b.mu.
func (b *Breaker) trip() {
	b.openedAt = b.cfg.Now()
	b.fails = 0
	b.probing = false
	b.transition(BreakerOpen)
}

// transition changes state and fires the observer. Caller holds b.mu.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}
