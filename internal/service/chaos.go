package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"sfccube/internal/obs"
	"sfccube/internal/resilience"
)

// stallKey carries a chaos compute stall through the request context. It is
// a context VALUE, not a deadline, so it survives the context.WithoutCancel
// detachment in Partition and reaches the compute worker — which is the
// point: the stall must burn the compute budget exactly like pathological
// real work would, while a client disconnect still cannot abort the
// detached computation.
type stallKey struct{}

// withComputeStall returns ctx instructing the next computation started
// under it to stall for d before doing real work.
func withComputeStall(ctx context.Context, d time.Duration) context.Context {
	return context.WithValue(ctx, stallKey{}, d)
}

func computeStallFrom(ctx context.Context) time.Duration {
	d, _ := ctx.Value(stallKey{}).(time.Duration)
	return d
}

// ChaosMiddleware wraps next with seeded request-level fault injection. The
// plan decides per request — a pure function of (seed, plan, request index),
// so a soak run is replay-identical under the same seed. Only /v1/ paths are
// eligible; health and observability surfaces stay clean. nil plan is a
// no-op.
func ChaosMiddleware(plan *resilience.ChaosPlan, reg *obs.Registry, next http.Handler) http.Handler {
	if plan == nil {
		return next
	}
	reg.Help("partsrv_chaos_injected_total", "Chaos faults injected at the HTTP layer, by kind.")
	var injected counterFamily
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		sp, ok := plan.Next()
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		injected.inc(int(sp.Kind), func() *obs.Counter {
			return reg.Counter("partsrv_chaos_injected_total", "kind", sp.Kind.String())
		})
		switch sp.Kind {
		case resilience.ChaosSlowResp:
			t := time.NewTimer(sp.Param)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
			}
			next.ServeHTTP(w, r)
		case resilience.ChaosDroppedConn:
			// Sever the connection without writing anything — the stdlib's
			// sanctioned way to abort from inside a handler.
			panic(http.ErrAbortHandler)
		case resilience.ChaosComputeStall:
			next.ServeHTTP(w, r.WithContext(withComputeStall(r.Context(), sp.Param)))
		case resilience.ChaosErrInject:
			// 503, not 500: injected errors are shaped like back-pressure so
			// the soak's shed-not-collapse terminal set {2xx, 429, 503}
			// holds even with errinject in the plan.
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "chaos: injected service error"})
		default:
			next.ServeHTTP(w, r)
		}
	})
}
