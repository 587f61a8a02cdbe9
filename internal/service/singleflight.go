package service

import "sync"

// flightGroup collapses concurrent calls with the same key into one
// execution whose result every caller shares — the classic singleflight
// protocol, implemented locally because the repo takes no external
// dependencies. Unlike a cache it holds results only while a call is in
// flight; pair it with Cache for the "same request → cached bytes" layer.
type flightGroup struct {
	mu sync.Mutex
	m  map[canonicalRequest]*flightCall
}

type flightCall struct {
	wg   sync.WaitGroup
	dups int // callers that joined this flight (guarded by the group mutex)
	val  any
	err  error
}

// waiters returns how many callers have joined the in-flight call for key
// (0 when none is in flight). Used by tests to release a held flight only
// once every expected caller has joined, making dedup assertions exact.
func (g *flightGroup) waiters(key canonicalRequest) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.dups
	}
	return 0
}

// Do executes fn and returns its result, unless another call with the same
// key is already in flight, in which case it blocks and returns that call's
// result instead. shared reports whether this caller joined an existing
// flight (i.e. fn did not run on its behalf).
//
// fn runs outside the group lock; a panic in fn propagates to the executing
// caller and leaves the waiters blocked, which is acceptable here because
// every fn in this package returns errors instead of panicking.
func (g *flightGroup) Do(key canonicalRequest, fn func() (any, error)) (v any, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[canonicalRequest]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := new(flightCall)
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, false, c.err
}
