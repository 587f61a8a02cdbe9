package service

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// TestSFCMissAllocationBudget is the alarm for "someone forced the graph
// again": one Ne=64 method=sfc miss must stay a curve build, a cut, streamed
// stats and one JSON encode. With the mesh neighbour tables and the CSR dual
// graph materialised it allocated 6.6 MB; without them 1.45 MB, and 1.17 MB
// once the stats sweep stopped copying its per-part vectors — 1.70 MB under
// -race whenever sync.Pool drops the JSON encoder's buffer, which it then
// does at random, so the budget is that figure + 25 %.
func TestSFCMissAllocationBudget(t *testing.T) {
	s := newTestService(t, Config{})
	anyLB := -1.0
	miss := func(nparts int) {
		if _, meta, err := s.Partition(context.Background(), Request{Ne: 64, NParts: nparts, Method: "sfc", MaxLB: &anyLB}); err != nil || meta.CacheHit {
			t.Fatalf("nparts=%d: err=%v hit=%v", nparts, err, meta.CacheHit)
		}
	}
	miss(1000) // warm lazily initialised state (metric handles, pools)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	miss(1001)
	runtime.ReadMemStats(&after)
	const budget = 1_700_584 * 5 / 4
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Ne=64 sfc miss allocated %d bytes, budget %d", got, budget)
	}
}

// BenchmarkServiceMiss times one cache miss end to end through
// Service.Partition (substrate, partition, stats, encode). Every iteration
// asks for a different nparts, so nothing is served from the cache.
func BenchmarkServiceMiss(b *testing.B) {
	anyLB := -1.0
	for _, method := range []string{"sfc", "kway"} {
		for _, ne := range []int{32, 128} {
			b.Run(fmt.Sprintf("%s/Ne%d", method, ne), func(b *testing.B) {
				s := NewService(Config{})
				k := 6 * ne * ne
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					req := Request{Ne: ne, NParts: k/16 + i%(k/16), Method: method, MaxLB: &anyLB}
					if _, meta, err := s.Partition(context.Background(), req); err != nil || meta.CacheHit {
						b.Fatalf("nparts=%d: err=%v hit=%v", req.NParts, err, meta.CacheHit)
					}
				}
			})
		}
	}
}
