package resilience

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic clock for breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(cfg BreakerConfig) (*Breaker, *fakeClock, *[]string) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	events := &[]string{}
	cfg.Now = clock.Now
	cfg.OnTransition = func(from, to BreakerState) {
		*events = append(*events, fmt.Sprintf("%s->%s", from, to))
	}
	return NewBreaker(cfg), clock, events
}

var errBoom = errors.New("boom")

// TestBreakerGoldenTransitionSequence drives the full state machine with a
// deterministic clock and asserts the exact transition event sequence —
// the golden sequence the chaos soak's per-method breakers follow.
func TestBreakerGoldenTransitionSequence(t *testing.T) {
	b, clock, events := newTestBreaker(BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         time.Second,
	})

	// Closed: failures below the threshold keep it closed; a success
	// resets the consecutive count.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker rejected a call")
		}
		b.Record(0, errBoom)
	}
	b.Record(0, nil) // resets the streak
	for i := 0; i < 2; i++ {
		b.Record(0, errBoom)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after interrupted failure streak, want closed", b.State())
	}

	// Third consecutive failure trips it.
	b.Record(0, errBoom)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}

	// Cooldown elapses: one probe is admitted, concurrent calls are not.
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second probe admitted while the first is in flight")
	}

	// First probe succeeds; still half-open (halfOpenProbes = 2), next
	// probe admitted, second success closes.
	b.Record(0, nil)
	if !b.Allow() {
		t.Fatal("second probe rejected after first success")
	}
	b.Record(0, nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after enough probe successes, want closed", b.State())
	}

	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if !reflect.DeepEqual(*events, want) {
		t.Errorf("transition sequence %v, want %v", *events, want)
	}
}

// TestBreakerHalfOpenFailureRetrips: a failed probe goes straight back to
// open and restarts the cooldown.
func TestBreakerHalfOpenFailureRetrips(t *testing.T) {
	b, clock, events := newTestBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second})
	b.Record(0, errBoom)
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected after cooldown")
	}
	b.Record(0, errBoom)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("re-tripped breaker admitted a call without a fresh cooldown")
	}
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown elapsed but probe rejected")
	}
	want := []string{"closed->open", "open->half-open", "half-open->open", "open->half-open"}
	if !reflect.DeepEqual(*events, want) {
		t.Errorf("transition sequence %v, want %v", *events, want)
	}
}

// TestBreakerLatencyBudgetBreach: successes slower than the budget count
// as failures and trip the breaker.
func TestBreakerLatencyBudgetBreach(t *testing.T) {
	b, _, _ := newTestBreaker(BreakerConfig{FailureThreshold: 2, LatencyBudget: 10 * time.Millisecond})
	b.Record(50*time.Millisecond, nil)
	b.Record(50*time.Millisecond, nil)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after two latency breaches, want open", b.State())
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Error("nil breaker rejected a call")
	}
	b.Record(0, errBoom)
	if b.State() != BreakerClosed {
		t.Error("nil breaker not closed")
	}
}

// TestBreakerConcurrentHammer: racing Allow/Record/State must stay
// consistent (run under -race in CI).
func TestBreakerConcurrentHammer(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Microsecond})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					if (w+i)%3 == 0 {
						b.Record(0, errBoom)
					} else {
						b.Record(0, nil)
					}
				}
				_ = b.State()
			}
		}(w)
	}
	wg.Wait()
}
