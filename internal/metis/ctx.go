package metis

import (
	"context"
	"fmt"

	"sfccube/internal/graph"
	"sfccube/internal/partition"
	"sfccube/internal/prng"
)

// stopper adapts a context to the cheap polling the multilevel hot loops
// can afford: one non-blocking channel check per coarsening level,
// refinement pass, or recursive-bisection node. A nil stopper (tests
// calling internals directly) never stops and carries no metrics.
//
// The stopper doubles as the instrumentation carrier: it is already
// threaded through every multilevel phase, so the metric handles ride
// along without widening any signature (see obs.go).
type stopper struct {
	ctx context.Context
	met *metisMetrics
}

func (s *stopper) stopped() bool {
	if s == nil || s.ctx == nil {
		return false
	}
	select {
	case <-s.ctx.Done():
		return true
	default:
		return false
	}
}

// PartitionCtx is Partition with cooperative cancellation: the deadline or
// cancellation of ctx is checked at every coarsening level, every refinement
// pass, and every node of the recursive-bisection tree, so even a large
// multilevel run aborts within one pass of the deadline. On cancellation it
// returns an error wrapping ctx.Err() (errors.Is with
// context.DeadlineExceeded / context.Canceled works); the partial assignment
// is discarded. An un-cancelled PartitionCtx is byte-identical to Partition:
// the deadline polls never touch the RNG streams.
func PartitionCtx(ctx context.Context, gr *graph.Graph, nparts int, opt Options) (*partition.Partition, error) {
	n := gr.NumVertices()
	if nparts < 1 {
		return nil, fmt.Errorf("metis: nparts must be >= 1, got %d", nparts)
	}
	if nparts > n {
		return nil, fmt.Errorf("metis: cannot split %d vertices into %d parts", n, nparts)
	}
	opt = opt.withDefaults()
	stop := &stopper{ctx: ctx, met: newMetisMetrics(opt.Obs)}
	if stop.stopped() {
		return nil, fmt.Errorf("metis: %v partition of %d vertices into %d parts cancelled: %w",
			opt.Method, n, nparts, ctx.Err())
	}
	wg := fromGraph(gr)

	assign := make([]int32, n)
	switch opt.Method {
	case RB:
		runRB(wg, nparts, assign, uint64(opt.Seed), stop)
	case KWay, KWayVol:
		ws := getWS()
		kwayPartition(wg, nparts, assign, prng.New(prng.Mix(uint64(opt.Seed))), opt, stop, ws)
		putWS(ws)
	default:
		return nil, fmt.Errorf("metis: unknown method %d", opt.Method)
	}
	if stop.stopped() {
		return nil, fmt.Errorf("metis: %v partition of %d vertices into %d parts cancelled: %w",
			opt.Method, n, nparts, ctx.Err())
	}
	return partition.FromAssignment(assign, nparts)
}
