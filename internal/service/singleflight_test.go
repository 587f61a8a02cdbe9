package service

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightGroupDedup(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	gate := make(chan struct{})

	const n = 32
	var wg sync.WaitGroup
	vals := make([]any, n)
	shareds := make([]bool, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			v, shared, err := g.Do(ck("k"), func() (any, error) {
				<-gate // hold the flight open until every caller joined
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shareds[i] = v, shared
		}(i)
	}
	// Release the executor only once all n-1 other callers are verifiably
	// waiting on its flight, so the dedup count below is exact.
	for deadline := time.Now().Add(10 * time.Second); g.waiters(ck("k")) != n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callers joined the flight", g.waiters(ck("k")), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	nShared := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Errorf("caller %d got %v", i, vals[i])
		}
		if shareds[i] {
			nShared++
		}
	}
	if nShared != n-1 {
		t.Errorf("%d callers reported shared results, want %d", nShared, n-1)
	}
}

func TestFlightGroupSequentialCallsRunEach(t *testing.T) {
	var g flightGroup
	n := 0
	for i := 0; i < 3; i++ {
		v, shared, err := g.Do(ck("k"), func() (any, error) { n++; return n, nil })
		if err != nil || shared {
			t.Fatalf("call %d: v=%v shared=%v err=%v", i, v, shared, err)
		}
		if v != i+1 {
			t.Fatalf("call %d returned %v, want %d (stale flight result?)", i, v, i+1)
		}
	}
}

func TestFlightGroupDistinctKeysIndependent(t *testing.T) {
	var g flightGroup
	var wg sync.WaitGroup
	var calls atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _ = g.Do(ck(string(rune('a'+i))), func() (any, error) {
				calls.Add(1)
				return nil, nil
			})
		}(i)
	}
	wg.Wait()
	if calls.Load() != 4 {
		t.Fatalf("fn ran %d times for 4 distinct keys, want 4", calls.Load())
	}
}
