// Package resilience is the request-side fault-tolerance layer: it obtains
// *some* valid partition under adversity. The fallback chain (fallback.go)
// answers a KWAY balance violation with an immediate reseeded retry (no
// backoff: a fresh seed, not time, is what can change the answer), then
// RB; a partitioner deadline overrun falls through to the O(K) SFC split,
// and an Ne unsupported by the Hilbert–Peano construction to the
// serpentine ordering. Every abandoned attempt is reported in the result
// with a typed error. Circuit breakers (breaker.go) skip a link that keeps
// failing or overrunning its budget; retry.go and chaos.go give seeded,
// replayable backoff and per-request fault plans for the service's soaks.
//
// The SEAM run supervisor (internal/seam/supervise) is a client: it
// re-partitions the survivors of a rank death through RepartitionChain.
package resilience
